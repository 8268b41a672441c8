//! The four parties of Fig. 2 and the eleven-step ShEF lifecycle.
//!
//! * [`Manufacturer`] — fabricates devices, burns keys, runs the CA.
//! * [`Csp`] — racks boards, loads the Shell, sells instances.
//! * [`IpVendor`] — develops shielded accelerators, distributes
//!   encrypted bitstreams, and releases their Bitstream Keys to attested
//!   Security Kernels.
//! * [`DataOwner`] — rents an instance, orchestrates boot + attestation,
//!   provisions keys and data, runs the accelerator.
//!
//! The vendor's key release (Fig. 3) is one round of the `shef_attest`
//! protocol — the same round the Data Owner runs to seal a DEK — with
//! the Bitstream Key as the sealed secret and the accelerator id as the
//! grant's binding:
//!
//! ```text
//!  IpVendor (one RemoteVerifier per product)       Security Kernel
//!     │  challenge(nonce, g^v)  ──────────────────────▶ │ secure_boot measured the
//!     │ ◀──────────── quote(measurement, nonce, certs) ─ │ kernel binary, then the
//!     │ device cert → CA root ✓  nonce fresh ✓           │ staged bitstream
//!     │ measurement = H(kernel ‖ staged bitstream) ✓     │
//!     │  ticket{AES-GCM_K(BitstreamKey), accel_id} ────▶ │ redeem → grant
//!     │                                                  │ load_accelerator(grant)
//! ```
//!
//! The lifecycle is exercised end-to-end by `tests/end_to_end.rs` and the
//! `quickstart` example.

use shef_attest::{
    AttestationRoot, AttestationTicket, AttestedTenant, Challenge, ManufacturerCa, Measurement,
    MeasurementChain, Quote, RemoteVerifier, SecurityKernel,
};
use shef_crypto::drbg::HmacDrbg;
use shef_crypto::ecies::EciesPublicKey;
use shef_crypto::ed25519::VerifyingKey;
use shef_fpga::board::{image_names, Board};
use shef_fpga::keystore::KeyProtection;
use shef_fpga::spb::seal_firmware;

use crate::bitstream::{Bitstream, BitstreamKey, EncryptedBitstream};
use crate::boot::{secure_boot, BootTiming};
use crate::shield::{DataEncryptionKey, LoadKey, Shield, ShieldConfig};
use crate::ShefError;

/// The canonical open-source Security Kernel binary used across the
/// workspace. Vendors audit it and fold it into the measurements they
/// accept.
pub const SECURITY_KERNEL_BINARY: &[u8] = b"shef-security-kernel v1.0 (open source)";

/// The FPGA Manufacturer: provisions devices and operates the root CA.
pub struct Manufacturer {
    ca: ManufacturerCa,
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
            ca: ManufacturerCa::from_seed(&ca_seed),
            rng,
        }
    }

    /// The CA root key all parties pin.
    #[must_use]
    pub fn ca_root(&self) -> VerifyingKey {
        self.ca.root_public()
    }

    /// Fig. 2 steps 1–2: burns the AES device key and ships, inside SPB
    /// firmware sealed under it, the CA certificate for the attestation
    /// identity the device derives from that key.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Fpga`] if the device was already provisioned.
    pub fn provision_device(&mut self, board: &mut Board) -> Result<(), ShefError> {
        let aes_key = self.rng.generate_array::<32>();
        board
            .device
            .keystore
            .burn_aes_key(aes_key, KeyProtection::PufWrapped)?;
        let cert = self.ca.certify_device(
            board.device.die_serial(),
            &AttestationRoot::from_device_key(&aes_key),
        );
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&aes_key, &cert.to_bytes()),
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

/// The IP Vendor: develops accelerators and releases their Bitstream
/// Keys to attested Security Kernels.
pub struct IpVendor {
    name: String,
    rng: HmacDrbg,
    ca_root: VerifyingKey,
    /// Measurement chains over each audited Security Kernel binary.
    kernels: Vec<MeasurementChain>,
    /// Each product with its key and the verifier that releases it.
    products: Vec<(AcceleratorProduct, BitstreamKey, RemoteVerifier)>,
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
    /// Creates a vendor trusting the given CA root and the audited
    /// Security Kernel binaries (§3: the vendor "consults a public list
    /// of ShEF Security Kernel … hashes").
    #[must_use]
    pub fn new(name: &str, ca_root: VerifyingKey, audited_kernels: &[&[u8]]) -> Self {
        let kernels = audited_kernels
            .iter()
            .map(|binary| {
                let mut chain = MeasurementChain::new();
                chain.extend(image_names::SECURITY_KERNEL, binary);
                chain
            })
            .collect();
        IpVendor {
            name: name.to_owned(),
            rng: HmacDrbg::from_seed(format!("shef.vendor.{name}").as_bytes()),
            ca_root,
            kernels,
            products: Vec::new(),
        }
    }

    /// Vendor name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fig. 2 steps 3–4: wraps accelerator logic with a Shield config,
    /// provisions the Shield Encryption Key and Bitstream Encryption
    /// Key, and publishes the encrypted bitstream. The product's
    /// verifier pins the CA root and accepts exactly the measurements of
    /// an audited kernel followed by this encrypted bitstream.
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
        let mut verifier =
            RemoteVerifier::from_seed(&self.rng.generate_array::<32>(), self.ca_root);
        for kernel in &self.kernels {
            let mut chain = kernel.clone();
            chain.extend(
                image_names::ACCELERATOR_BITSTREAM,
                &product.encrypted_bitstream.0,
            );
            verifier.publish_measurement(chain.current());
        }
        self.products
            .push((product.clone(), bitstream_key, verifier));
        Ok(product)
    }

    /// Fig. 3 steps 1–2: opens a release round for `accel_id` — a fresh
    /// nonce and an ephemeral key from that product's verifier.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::ProtocolViolation`] for an unknown product.
    pub fn challenge(&mut self, accel_id: &str) -> Result<Challenge, ShefError> {
        Ok(self.listing(accel_id)?.2.challenge())
    }

    /// Fig. 3 steps 5–6: verifies the kernel's quote — genuine device,
    /// audited kernel and correct staged bitstream (one measurement),
    /// fresh nonce — and seals the product's Bitstream Key to the
    /// quoting kernel's session, in a ticket bound to `accel_id`.
    ///
    /// # Errors
    ///
    /// * [`ShefError::AttestationFailed`] with the typed check that
    ///   failed.
    /// * [`ShefError::ProtocolViolation`] for an unknown product.
    pub fn release_bitstream_key(
        &mut self,
        accel_id: &str,
        quote: &Quote,
    ) -> Result<AttestationTicket, ShefError> {
        let (_, key, verifier) = self.listing(accel_id)?;
        Ok(verifier.verify_and_provision(quote, accel_id, key.0)?)
    }

    fn listing(
        &mut self,
        accel_id: &str,
    ) -> Result<&mut (AcceleratorProduct, BitstreamKey, RemoteVerifier), ShefError> {
        self.products
            .iter_mut()
            .find(|(p, ..)| p.accel_id == accel_id)
            .ok_or_else(|| ShefError::ProtocolViolation(format!("unknown product {accel_id}")))
    }
}

/// Security-Kernel side of Fig. 3 step 7: decrypts the staged bitstream
/// with a redeemed Bitstream-Key grant and loads it into the PR region.
///
/// Returns the plaintext [`Bitstream`] — in hardware this never leaves
/// the fabric; callers instantiate the Shield from it.
///
/// # Errors
///
/// * [`ShefError::Crypto`] if the grant's key does not open the staged
///   bitstream (a grant for another product).
/// * [`ShefError::Fpga`] if nothing is staged or the Shell is not
///   resident.
pub fn load_accelerator(board: &mut Board, grant: &AttestedTenant) -> Result<Bitstream, ShefError> {
    let staged = EncryptedBitstream(
        board
            .boot_medium
            .load(image_names::ACCELERATOR_BITSTREAM)?
            .to_vec(),
    );
    let bitstream = staged.open(&BitstreamKey(grant.data_key()))?;
    board.device.fabric.load_partial(bitstream.to_bytes())?;
    Ok(bitstream)
}

/// What the Data Owner keeps from the boot that programmed an instance.
#[derive(Debug, Clone, Copy)]
pub struct BootReport {
    /// The measurement (kernel, then staged bitstream) the vendor
    /// accepted.
    pub measurement: Measurement,
    /// Modelled boot latency.
    pub timing: BootTiming,
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
    kernel: Option<SecurityKernel>,
}

impl core::fmt::Debug for ProgrammedInstance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProgrammedInstance")
            .field("accel_id", &self.accel_id)
            .finish_non_exhaustive()
    }
}

impl ProgrammedInstance {
    /// The Security Kernel that attested this instance, for further
    /// attestation rounds.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::BootFailed`] once its processor has stopped
    /// (power cycle or tamper halt): the kernel and its open sessions
    /// are dropped for good, and a fresh [`secure_boot`] on the board
    /// yields a new kernel.
    pub fn kernel_mut(&mut self) -> Result<&mut SecurityKernel, ShefError> {
        if !self.board.device.sk_processor.is_running() {
            self.kernel = None;
        }
        self.kernel
            .as_mut()
            .ok_or_else(|| ShefError::BootFailed("the Security Kernel is not running".into()))
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
    /// bitstream, triggers secure boot, relays one attestation round
    /// between the Security Kernel and the IP Vendor, and lets the kernel
    /// load the accelerator. Returns the programmed instance.
    ///
    /// The device certificate travels inside the board's sealed SPB
    /// firmware, so `_manufacturer` is not consulted; the vendor's
    /// verifier checks the certificate against the CA root it pins.
    ///
    /// # Errors
    ///
    /// Propagates boot, attestation, and fabric errors; fails if the
    /// loaded design does not match the requested product.
    pub fn deploy(
        &mut self,
        mut board: Board,
        vendor: &mut IpVendor,
        _manufacturer: &Manufacturer,
        product: &AcceleratorProduct,
    ) -> Result<(ProgrammedInstance, DataEncryptionKey), ShefError> {
        // Stage the encrypted bitstream on the instance, then boot.
        board.boot_medium.store(
            image_names::ACCELERATOR_BITSTREAM,
            product.encrypted_bitstream.0.clone(),
        );
        let mut kernel = secure_boot(&mut board)?;
        // One attestation round, relayed over untrusted channels;
        // contents are signed/sealed end to end.
        let challenge = vendor.challenge(&product.accel_id)?;
        let quote = kernel.quote(&challenge)?;
        let ticket = vendor.release_bitstream_key(&product.accel_id, &quote)?;
        let grant = kernel.redeem(&ticket)?;
        // Kernel decrypts + loads the accelerator.
        let bitstream = load_accelerator(&mut board, &grant)?;
        if bitstream.accel_id != product.accel_id {
            return Err(ShefError::ProtocolViolation(
                "bitstream/product mismatch".into(),
            ));
        }
        // Shield comes alive inside the PR region.
        let shield = Shield::new(bitstream.shield_config.clone(), bitstream.shield_keypair())?;
        debug_assert_eq!(shield.public_key(), product.shield_public);
        // Data Owner generates the Data Encryption Key and provisions it
        // through the Load Key.
        let dek = DataEncryptionKey::from_bytes(self.rng.generate_array::<32>());
        let load_key = dek.to_load_key(&product.shield_public);
        let mut instance = ProgrammedInstance {
            board,
            shield,
            accel_id: bitstream.accel_id,
            logic: bitstream.logic,
            boot_report: BootReport {
                measurement: quote.measurement,
                timing: BootTiming::ultra96(),
            },
            kernel: Some(kernel),
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
    /// The vendor, trusting the canonical Security Kernel.
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
        let vendor = IpVendor::new(
            "acme-accel",
            manufacturer.ca_root(),
            &[SECURITY_KERNEL_BINARY],
        );
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
    use crate::shield::{EngineSetConfig, MemRange, ServiceConfig, ShieldService, WorkerPool};
    use crate::ShieldFault;
    use shef_attest::AttestError;

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

    /// A racked board with a packaged product staged and booted.
    fn booted(scenario: &str) -> (TestBench, Board, SecurityKernel, AcceleratorProduct) {
        let mut bench = TestBench::new(scenario);
        let mut board = bench.fresh_board(b"die-attest").unwrap();
        let product = bench
            .vendor
            .package_accelerator("test-accel", shield_config(), vec![1, 2, 3])
            .unwrap();
        board.boot_medium.store(
            image_names::ACCELERATOR_BITSTREAM,
            product.encrypted_bitstream.0.clone(),
        );
        let kernel = secure_boot(&mut board).unwrap();
        (bench, board, kernel, product)
    }

    /// The typed attestation check behind a vendor refusal.
    fn refusal<T: core::fmt::Debug>(result: Result<T, ShefError>) -> AttestError {
        match result {
            Err(ShefError::AttestationFailed(e)) => e,
            other => panic!("expected an attestation refusal, got {other:?}"),
        }
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
        assert!(matches!(
            err,
            ShefError::AttestationFailed(AttestError::CertChain(_))
        ));
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

    #[test]
    fn full_attestation_flow() {
        let (mut bench, mut board, mut kernel, product) = booted("flow");
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        let ticket = bench
            .vendor
            .release_bitstream_key("test-accel", &quote)
            .unwrap();
        let grant = kernel.redeem(&ticket).unwrap();
        assert_eq!(grant.tenant(), product.accel_id);
        let bitstream = load_accelerator(&mut board, &grant).unwrap();
        assert_eq!(bitstream.accel_id, "test-accel");
        assert!(board.device.fabric.partial().is_some());
    }

    #[test]
    fn wrong_nonce_rejected() {
        let (mut bench, _, mut kernel, _) = booted("nonce");
        let mut forged = bench.vendor.challenge("test-accel").unwrap();
        forged.nonce = [0u8; 32];
        let quote = kernel.quote(&forged).unwrap();
        assert_eq!(
            refusal(bench.vendor.release_bitstream_key("test-accel", &quote)),
            AttestError::UnknownNonce
        );
        // A genuine transcript cannot be released twice.
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        bench
            .vendor
            .release_bitstream_key("test-accel", &quote)
            .unwrap();
        assert_eq!(
            refusal(bench.vendor.release_bitstream_key("test-accel", &quote)),
            AttestError::ReplayedNonce
        );
    }

    #[test]
    fn unknown_kernel_rejected() {
        let (mut bench, mut board, _, _) = booted("kernel");
        board.device.power_cycle();
        board
            .boot_medium
            .store(image_names::SECURITY_KERNEL, b"unaudited kernel".to_vec());
        let mut kernel = secure_boot(&mut board).unwrap();
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        assert!(matches!(
            refusal(bench.vendor.release_bitstream_key("test-accel", &quote)),
            AttestError::UnknownMeasurement(_)
        ));
    }

    #[test]
    fn swapped_bitstream_rejected() {
        let (mut bench, mut board, _, _) = booted("swap");
        // The host stages a different bitstream and boots again.
        board.device.power_cycle();
        board
            .boot_medium
            .store(image_names::ACCELERATOR_BITSTREAM, vec![0xEE; 500]);
        let mut kernel = secure_boot(&mut board).unwrap();
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        assert!(matches!(
            refusal(bench.vendor.release_bitstream_key("test-accel", &quote)),
            AttestError::UnknownMeasurement(_)
        ));
    }

    #[test]
    fn tampered_quote_rejected() {
        let (mut bench, _, mut kernel, _) = booted("tamper");
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let mut quote = kernel.quote(&challenge).unwrap();
        quote.signature.0[0] ^= 1;
        assert!(matches!(
            refusal(bench.vendor.release_bitstream_key("test-accel", &quote)),
            AttestError::BadSignature(_)
        ));
    }

    #[test]
    fn bitstream_key_hand_off_requires_session() {
        let (mut bench, mut board, mut kernel, _) = booted("session");
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        let ticket = bench
            .vendor
            .release_bitstream_key("test-accel", &quote)
            .unwrap();
        // A kernel that never quoted this session cannot redeem it.
        board.device.power_cycle();
        let mut rebooted = secure_boot(&mut board).unwrap();
        assert_eq!(
            rebooted.redeem(&ticket).unwrap_err(),
            AttestError::UnknownSession
        );
    }

    #[test]
    fn wrong_session_key_rejected() {
        let (mut bench, _, mut kernel, _) = booted("mitm");
        // A MITM that swaps in its own key share is caught by the vendor.
        let mut hijacked = bench.vendor.challenge("test-accel").unwrap();
        hijacked.verifier_kem = shef_crypto::ecies::EciesKeyPair::from_seed(b"mitm")
            .public_key()
            .0;
        let quote = kernel.quote(&hijacked).unwrap();
        assert!(matches!(
            refusal(bench.vendor.release_bitstream_key("test-accel", &quote)),
            AttestError::Malformed(_)
        ));
        // A sealed key the MITM injects into a genuine ticket does not
        // open under the session key.
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        let ticket = bench
            .vendor
            .release_bitstream_key("test-accel", &quote)
            .unwrap();
        let mut bytes = ticket.to_bytes();
        let idx = bytes.len() - 100;
        bytes[idx] ^= 1;
        let spliced = AttestationTicket::from_bytes(&bytes).unwrap();
        assert!(matches!(
            kernel.redeem(&spliced),
            Err(AttestError::SealTamper(_))
        ));
    }

    #[test]
    fn bitstream_key_grant_is_bound_to_its_product() {
        let (mut bench, mut board, mut kernel, _) = booted("grant");
        let other = bench
            .vendor
            .package_accelerator("other-accel", shield_config(), vec![4])
            .unwrap();
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        let ticket = bench
            .vendor
            .release_bitstream_key("test-accel", &quote)
            .unwrap();
        let grant = kernel.redeem(&ticket).unwrap();
        // The grant for one accelerator cannot open another's bitstream.
        board.boot_medium.store(
            image_names::ACCELERATOR_BITSTREAM,
            other.encrypted_bitstream.0.clone(),
        );
        assert!(matches!(
            load_accelerator(&mut board, &grant),
            Err(ShefError::Crypto(_))
        ));
        // Nor is it a tenant credential: the service pins the Data
        // Owner's verifier, not the vendor's.
        let owner = shef_attest::AttestationEnvironment::new(b"grant-owner").unwrap();
        let mut service =
            ShieldService::new(ServiceConfig::default(), owner.verifier_public()).unwrap();
        assert!(matches!(
            service.register_tenant("test-accel", shield_config(), &grant),
            Err(ShefError::Fault(ShieldFault::AttestationRejected { .. }))
        ));
    }

    #[test]
    fn release_is_per_product() {
        let (mut bench, _, mut kernel, _) = booted("per-product");
        bench
            .vendor
            .package_accelerator("other-accel", shield_config(), vec![4])
            .unwrap();
        assert!(matches!(
            bench.vendor.challenge("no-such-accel"),
            Err(ShefError::ProtocolViolation(_))
        ));
        // A quote answering one product's challenge releases nothing
        // for another product...
        let challenge = bench.vendor.challenge("test-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        assert_eq!(
            refusal(bench.vendor.release_bitstream_key("other-accel", &quote)),
            AttestError::UnknownNonce
        );
        // ...and a kernel that staged one product cannot obtain the
        // other's key.
        let challenge = bench.vendor.challenge("other-accel").unwrap();
        let quote = kernel.quote(&challenge).unwrap();
        assert!(matches!(
            refusal(bench.vendor.release_bitstream_key("other-accel", &quote)),
            AttestError::UnknownMeasurement(_)
        ));
    }

    #[test]
    fn vendor_accepts_every_audited_kernel() {
        let mut bench = TestBench::new("kernels");
        bench.vendor = IpVendor::new(
            "acme-accel",
            bench.manufacturer.ca_root(),
            &[b"shef-security-kernel v0.9", SECURITY_KERNEL_BINARY],
        );
        let board = bench.fresh_board(b"die-kernels").unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        bench
            .data_owner
            .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
            .unwrap();
    }

    #[test]
    fn monitor_trip_ends_the_kernel() {
        let mut bench = TestBench::new("tamper-halt");
        let board = bench.fresh_board(b"die-halt").unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        let (mut instance, _) = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
            .unwrap();
        assert!(instance.kernel_mut().is_ok());
        instance
            .board
            .device
            .ports
            .adversarial_access(shef_fpga::ports::DebugPort::Jtag, "probe");
        assert!(crate::boot::kernel_check_monitors(&mut instance.board).is_err());
        assert!(matches!(
            instance.kernel_mut(),
            Err(ShefError::BootFailed(_))
        ));
    }
}
