//! The four parties of Fig. 2 and the eleven-step ShEF lifecycle.
//!
//! * [`Manufacturer`] — fabricates devices, burns keys, runs the CA.
//! * [`Csp`] — racks boards, loads the Shell, sells instances.
//! * [`IpVendor`] — develops shielded accelerators, runs the attestation
//!   service, distributes encrypted bitstreams.
//! * [`DataOwner`] — rents an instance, orchestrates boot + attestation,
//!   provisions keys and data, runs the accelerator.
//!
//! The lifecycle is exercised end-to-end by `tests/end_to_end.rs` and the
//! `quickstart` example.

use shef_crypto::drbg::HmacDrbg;
use shef_crypto::ecies::{EciesKeyPair, EciesPublicKey};
use shef_crypto::ed25519::SigningKey;
use shef_fpga::board::{image_names, Board};
use shef_fpga::keystore::KeyProtection;
use shef_fpga::spb::seal_firmware;

use crate::attest::{
    kernel_handle_challenge, kernel_receive_bitstream_key, vendor_seal_bitstream_key,
    vendor_verify, AttestationChallenge, AttestationResponse, VendorVerification,
};
use crate::bitstream::{Bitstream, BitstreamKey, EncryptedBitstream};
use crate::boot::{secure_boot, BootReport, FirmwarePayload};
use crate::pki::{CertSubject, CertificateAuthority, MeasurementRegistry};
use crate::shield::{DataEncryptionKey, LoadKey, Shield, ShieldConfig};
use crate::ShefError;

/// The canonical open-source Security Kernel binary used across the
/// workspace. Its hash is what the measurement registry publishes.
pub const SECURITY_KERNEL_BINARY: &[u8] = b"shef-security-kernel v1.0 (open source)";

/// The FPGA Manufacturer: provisions devices and operates the root CA.
pub struct Manufacturer {
    ca: CertificateAuthority,
    rng: HmacDrbg,
}

impl core::fmt::Debug for Manufacturer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Manufacturer")
            .field("ca", &self.ca)
            .finish_non_exhaustive()
    }
}

impl Manufacturer {
    /// Creates a manufacturer with a deterministic CA root.
    #[must_use]
    pub fn new(seed: &[u8]) -> Self {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca_seed = rng.generate_array::<32>();
        Manufacturer {
            ca: CertificateAuthority::new(&ca_seed),
            rng,
        }
    }

    /// The CA root key all parties pin.
    #[must_use]
    pub fn ca_root(&self) -> shef_crypto::ed25519::VerifyingKey {
        self.ca.root_public()
    }

    /// Read access to the CA (certificate lookups).
    #[must_use]
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Fig. 2 steps 1–2: burns the AES device key, embeds the private
    /// device key in AES-sealed firmware, registers the public device
    /// key with the CA.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Fpga`] if the device was already provisioned.
    pub fn provision_device(&mut self, board: &mut Board) -> Result<(), ShefError> {
        let aes_key = self.rng.generate_array::<32>();
        let device_key_seed = self.rng.generate_array::<32>();
        board
            .device
            .keystore
            .burn_aes_key(aes_key, KeyProtection::PufWrapped)?;
        let firmware = FirmwarePayload { device_key_seed };
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&aes_key, &firmware.to_bytes()),
        );
        let device_public = SigningKey::from_seed(&device_key_seed).verifying_key();
        self.ca.issue(
            CertSubject::Device {
                die_serial: board.device.die_serial().to_vec(),
            },
            device_public,
        );
        Ok(())
    }
}

/// The Cloud Service Provider: owns boards and the Shell.
#[derive(Debug, Default)]
pub struct Csp {
    shell_version: String,
}

impl Csp {
    /// Creates a CSP deploying the given Shell version.
    #[must_use]
    pub fn new(shell_version: &str) -> Self {
        Csp {
            shell_version: shell_version.to_owned(),
        }
    }

    /// Racks a provisioned board: stages the Security Kernel and loads
    /// the Shell static region (done through the Security Kernel in the
    /// real flow; the CSP "can fully control and audit the Shell loading
    /// process", §3).
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Fpga`] if the Shell is already resident.
    pub fn rack_board(&self, board: &mut Board) -> Result<(), ShefError> {
        board.boot_medium.store(
            image_names::SECURITY_KERNEL,
            SECURITY_KERNEL_BINARY.to_vec(),
        );
        board
            .device
            .fabric
            .load_shell(&self.shell_version, b"aws-f1-shell-logic")?;
        Ok(())
    }
}

/// A packaged accelerator product on the vendor's marketplace page.
#[derive(Debug, Clone)]
pub struct AcceleratorProduct {
    /// Marketplace identifier.
    pub accel_id: String,
    /// The encrypted partial bitstream customers download.
    pub encrypted_bitstream: EncryptedBitstream,
    /// Public Shield Encryption Key for Load-Key construction.
    pub shield_public: EciesPublicKey,
}

/// The IP Vendor: develops accelerators and runs the attestation server.
pub struct IpVendor {
    name: String,
    rng: HmacDrbg,
    products: Vec<(AcceleratorProduct, BitstreamKey)>,
    registry: MeasurementRegistry,
    ca_root: shef_crypto::ed25519::VerifyingKey,
}

impl core::fmt::Debug for IpVendor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IpVendor")
            .field("name", &self.name)
            .field("products", &self.products.len())
            .finish_non_exhaustive()
    }
}

impl IpVendor {
    /// Creates a vendor trusting the given CA root and kernel registry.
    #[must_use]
    pub fn new(
        name: &str,
        ca_root: shef_crypto::ed25519::VerifyingKey,
        registry: MeasurementRegistry,
    ) -> Self {
        IpVendor {
            name: name.to_owned(),
            rng: HmacDrbg::from_seed(format!("shef.vendor.{name}").as_bytes()),
            products: Vec::new(),
            registry,
            ca_root,
        }
    }

    /// Vendor name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fig. 2 steps 3–4: wraps accelerator logic with a Shield config,
    /// provisions the Shield Encryption Key and Bitstream Encryption
    /// Key, and publishes the encrypted bitstream.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] for bad Shield configs.
    pub fn package_accelerator(
        &mut self,
        accel_id: &str,
        shield_config: ShieldConfig,
        logic: Vec<u8>,
    ) -> Result<AcceleratorProduct, ShefError> {
        shield_config.validate()?;
        let shield_key_seed = self.rng.generate_array::<32>();
        let bitstream_key = BitstreamKey(self.rng.generate_array::<32>());
        let bitstream = Bitstream {
            accel_id: accel_id.to_owned(),
            shield_config,
            shield_key_seed,
            logic,
        };
        let product = AcceleratorProduct {
            accel_id: accel_id.to_owned(),
            encrypted_bitstream: EncryptedBitstream::seal(&bitstream, &bitstream_key),
            shield_public: bitstream.shield_keypair().public_key(),
        };
        self.products.push((product.clone(), bitstream_key));
        Ok(product)
    }

    /// Starts an attestation session: issues a fresh nonce and an
    /// ephemeral Verification Key (Fig. 3 steps 1–2).
    #[must_use]
    pub fn begin_attestation(&mut self) -> (AttestationChallenge, VendorSession) {
        let nonce = self.rng.generate_array::<32>();
        let verif = EciesKeyPair::generate(&mut self.rng);
        (
            AttestationChallenge {
                nonce,
                verif_public: verif.public_key().0,
            },
            VendorSession { nonce, verif },
        )
    }

    /// Completes attestation: verifies the kernel's response against the
    /// device certificate and, on success, returns the Bitstream Key
    /// sealed for the kernel plus the product's Shield public key
    /// (Fig. 3 steps 5–7).
    ///
    /// # Errors
    ///
    /// * [`ShefError::AttestationFailed`] if any check fails.
    /// * [`ShefError::ProtocolViolation`] for unknown products/devices.
    pub fn complete_attestation(
        &mut self,
        session: &VendorSession,
        response: &AttestationResponse,
        device_cert: &crate::pki::Certificate,
        accel_id: &str,
    ) -> Result<(shef_crypto::authenc::Sealed, EciesPublicKey), ShefError> {
        device_cert
            .verify(&self.ca_root)
            .map_err(|_| ShefError::AttestationFailed("device certificate invalid".into()))?;
        let (product, bitstream_key) = self
            .products
            .iter()
            .find(|(p, _)| p.accel_id == accel_id)
            .ok_or_else(|| {
            ShefError::ProtocolViolation(format!("unknown product {accel_id}"))
        })?;
        let verification = VendorVerification {
            device_public: device_cert.public_key,
            known_kernels: &self.registry,
            expected_nonce: session.nonce,
            verif_key: &session.verif,
            expected_bitstream_hash: product.encrypted_bitstream.hash(),
        };
        let mut session_key = vendor_verify(&verification, response)?;
        let sealed = vendor_seal_bitstream_key(&mut session_key, bitstream_key);
        Ok((sealed, product.shield_public))
    }
}

/// The vendor's per-session ephemeral state.
pub struct VendorSession {
    nonce: [u8; 32],
    verif: EciesKeyPair,
}

impl core::fmt::Debug for VendorSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VendorSession").finish_non_exhaustive()
    }
}

/// A fully attested, programmed FPGA instance, ready for data.
pub struct ProgrammedInstance {
    /// The board (host + device).
    pub board: Board,
    /// The Shield instantiated in the PR region.
    pub shield: Shield,
    /// The accelerator id carried by the loaded bitstream.
    pub accel_id: String,
    /// Opaque accelerator logic payload from the bitstream.
    pub logic: Vec<u8>,
    /// The boot report (for audit).
    pub boot_report: BootReport,
}

impl core::fmt::Debug for ProgrammedInstance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProgrammedInstance")
            .field("accel_id", &self.accel_id)
            .finish_non_exhaustive()
    }
}

/// The Data Owner: orchestrates the end-to-end flow.
pub struct DataOwner {
    rng: HmacDrbg,
}

impl core::fmt::Debug for DataOwner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DataOwner").finish_non_exhaustive()
    }
}

impl DataOwner {
    /// Creates a data owner with deterministic key material.
    #[must_use]
    pub fn new(seed: &[u8]) -> Self {
        DataOwner {
            rng: HmacDrbg::from_seed(seed),
        }
    }

    /// Fig. 2 steps 5–10: rents the board, stages the vendor's encrypted
    /// bitstream, triggers secure boot, relays attestation between the
    /// Security Kernel and the IP Vendor, and lets the kernel load the
    /// accelerator. Returns the programmed instance.
    ///
    /// # Errors
    ///
    /// Propagates boot, attestation, and fabric errors; fails if the
    /// loaded design does not match the requested product.
    pub fn deploy(
        &mut self,
        mut board: Board,
        vendor: &mut IpVendor,
        manufacturer: &Manufacturer,
        product: &AcceleratorProduct,
    ) -> Result<(ProgrammedInstance, DataEncryptionKey), ShefError> {
        // Stage the encrypted bitstream on the instance.
        board.boot_medium.store(
            image_names::ACCELERATOR_BITSTREAM,
            product.encrypted_bitstream.0.clone(),
        );
        // Secure boot.
        let boot_report = secure_boot(&mut board)?;
        // Attestation: Data Owner relays messages over untrusted
        // channels; contents are signed/sealed end to end.
        let (challenge, session) = vendor.begin_attestation();
        let response = kernel_handle_challenge(&mut board, &challenge)?;
        let device_cert = manufacturer
            .ca()
            .device_certificate(board.device.die_serial())
            .ok_or_else(|| ShefError::AttestationFailed("device has no certificate".into()))?
            .clone();
        let (sealed_key, shield_public) =
            vendor.complete_attestation(&session, &response, &device_cert, &product.accel_id)?;
        // Kernel decrypts + loads the accelerator.
        let bitstream = kernel_receive_bitstream_key(&mut board, &sealed_key)?;
        if bitstream.accel_id != product.accel_id {
            return Err(ShefError::ProtocolViolation(
                "bitstream/product mismatch".into(),
            ));
        }
        // Shield comes alive inside the PR region.
        let shield = Shield::new(bitstream.shield_config.clone(), bitstream.shield_keypair())?;
        debug_assert_eq!(shield.public_key(), shield_public);
        // Data Owner generates the Data Encryption Key and provisions it
        // through the Load Key.
        let dek = DataEncryptionKey::from_bytes(self.rng.generate_array::<32>());
        let load_key = dek.to_load_key(&shield_public);
        let mut instance = ProgrammedInstance {
            board,
            shield,
            accel_id: bitstream.accel_id,
            logic: bitstream.logic,
            boot_report,
        };
        instance.shield.provision_load_key(&load_key)?;
        Ok((instance, dek))
    }

    /// Generates a standalone Data Encryption Key (multi-Shield setups).
    #[must_use]
    pub fn generate_data_key(&mut self) -> DataEncryptionKey {
        DataEncryptionKey::from_bytes(self.rng.generate_array::<32>())
    }

    /// Builds a Load Key for an additional Shield module.
    #[must_use]
    pub fn build_load_key(
        &self,
        dek: &DataEncryptionKey,
        shield_public: &EciesPublicKey,
    ) -> LoadKey {
        dek.to_load_key(shield_public)
    }
}

/// Convenience: the complete environment for tests and examples.
pub struct TestBench {
    /// The manufacturer and CA.
    pub manufacturer: Manufacturer,
    /// The CSP.
    pub csp: Csp,
    /// The vendor with the kernel-hash registry.
    pub vendor: IpVendor,
    /// The data owner.
    pub data_owner: DataOwner,
}

impl core::fmt::Debug for TestBench {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TestBench").finish_non_exhaustive()
    }
}

impl TestBench {
    /// Builds the standard four-party environment.
    #[must_use]
    pub fn new(scenario: &str) -> Self {
        let manufacturer = Manufacturer::new(format!("manufacturer.{scenario}").as_bytes());
        let mut registry = MeasurementRegistry::new();
        registry.publish_kernel_hash(shef_crypto::sha2::Sha256::digest(SECURITY_KERNEL_BINARY));
        let vendor = IpVendor::new("acme-accel", manufacturer.ca_root(), registry);
        TestBench {
            manufacturer,
            csp: Csp::new("aws-f1-shell-v1.4"),
            vendor,
            data_owner: DataOwner::new(format!("data-owner.{scenario}").as_bytes()),
        }
    }

    /// Provisions and racks a fresh board.
    ///
    /// # Errors
    ///
    /// Propagates provisioning errors.
    pub fn fresh_board(&mut self, die_serial: &[u8]) -> Result<Board, ShefError> {
        let mut board = Board::new(die_serial);
        self.manufacturer.provision_device(&mut board)?;
        self.csp.rack_board(&mut board)?;
        Ok(board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::{EngineSetConfig, MemRange, WorkerPool};

    fn shield_config() -> ShieldConfig {
        ShieldConfig::builder()
            .region(
                "data",
                MemRange::new(0, 1 << 20),
                EngineSetConfig {
                    zero_fill_writes: true,
                    ..EngineSetConfig::default()
                },
            )
            .build()
            .unwrap()
    }

    #[test]
    fn full_lifecycle() {
        let mut bench = TestBench::new("lifecycle");
        let board = bench.fresh_board(b"die-001").unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![0xAA; 64])
            .unwrap();
        let (instance, _dek) = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
            .unwrap();
        assert_eq!(instance.accel_id, "demo");
        assert!(instance.shield.is_provisioned());
        assert!(instance.board.device.ports.monitors_armed());
    }

    #[test]
    fn unprovisioned_device_cannot_deploy() {
        let mut bench = TestBench::new("unprov");
        // Board with no manufacturer provisioning.
        let mut board = Board::new(b"grey-market-die");
        bench.csp.rack_board(&mut board).unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        let err = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
            .unwrap_err();
        // Boot fails at the key store: nothing burned.
        assert!(matches!(err, ShefError::Fpga(_)));
    }

    #[test]
    fn device_from_other_manufacturer_rejected() {
        let mut bench = TestBench::new("two-makers");
        // A second manufacturer provisions the board, but the vendor
        // trusts only the first CA.
        let mut rogue = Manufacturer::new(b"rogue-maker");
        let mut board = Board::new(b"die-rogue");
        rogue.provision_device(&mut board).unwrap();
        bench.csp.rack_board(&mut board).unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        let err = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &rogue, &product)
            .unwrap_err();
        assert!(matches!(err, ShefError::AttestationFailed(_)));
    }

    #[test]
    fn vendor_products_are_isolated() {
        let mut bench = TestBench::new("multi-product");
        let p1 = bench
            .vendor
            .package_accelerator("p1", shield_config(), vec![1])
            .unwrap();
        let p2 = bench
            .vendor
            .package_accelerator("p2", shield_config(), vec![2])
            .unwrap();
        assert_ne!(p1.shield_public, p2.shield_public);
        assert_ne!(p1.encrypted_bitstream.hash(), p2.encrypted_bitstream.hash());
    }

    #[test]
    fn deployed_instance_runs_shielded_io() {
        let pool = WorkerPool::new(1);
        use crate::shield::client;
        use shef_fpga::clock::CostLedger;

        let mut bench = TestBench::new("io");
        let board = bench.fresh_board(b"die-io").unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        let (mut instance, dek) = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
            .unwrap();

        // Data Owner provisions encrypted input via host DMA.
        let region = instance.shield.config().regions[0].clone();
        let input = vec![0x5Au8; 4096];
        let enc = client::encrypt_region(&dek, &region, &input, 0);
        let mut ledger = CostLedger::new();
        let tag_base = instance.shield.config().tag_base(0);
        instance
            .board
            .host
            .dma_to_device(
                &mut instance.board.shell,
                &mut instance.board.device.dram,
                &mut ledger,
                0,
                &enc.ciphertext,
            )
            .unwrap();
        instance
            .board
            .host
            .dma_to_device(
                &mut instance.board.shell,
                &mut instance.board.device.dram,
                &mut ledger,
                tag_base,
                &enc.tags,
            )
            .unwrap();
        // Accelerator reads plaintext through the Shield.
        let got = instance
            .shield
            .read(
                &mut instance.board.shell,
                &mut instance.board.device.dram,
                &mut ledger,
                0,
                4096,
                crate::shield::AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, input);
    }
}
