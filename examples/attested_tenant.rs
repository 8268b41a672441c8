//! Remote attestation, message by message: two key releases, one
//! protocol.
//!
//! Both of ShEF's key releases run the same `shef-attest` round —
//! challenge → quote → verify and seal → redeem — against a measured
//! Security Kernel:
//!
//! * **Round 1, the IP Vendor (Fig. 3).** Secure boot measures the
//!   Security Kernel binary and the staged encrypted accelerator
//!   bitstream. The vendor checks that the quote chains to the
//!   Manufacturer CA (genuine device), that the measurement is an
//!   audited kernel followed by its bitstream, and that the nonce is
//!   fresh. It then seals the **Bitstream Key** to the kernel's session,
//!   and the kernel decrypts and loads the accelerator.
//! * **Round 2, the Data Owner.** The owner's verifier checks the Shield
//!   bitstream the same way and seals the tenant's **Data Encryption
//!   Key**. The multi-tenant `ShieldService` admits only grants that
//!   the owner's verifier issued. A replayed credential is refused, and
//!   so is the vendor's Bitstream-Key grant.
//!
//! Run with: `cargo run --release --example attested_tenant`

use shef::attest::{AttestError, AttestationEnvironment};
use shef::core::boot::secure_boot;
use shef::core::fault::ShieldFault;
use shef::core::shield::{
    AccessMode, DataEncryptionKey, EngineSetConfig, MemRange, ServiceConfig, ServiceRequest,
    ShieldConfig, ShieldService,
};
use shef::core::workflow::{load_accelerator, TestBench};
use shef::core::ShefError;
use shef::crypto::to_hex;
use shef::fpga::board::image_names;

fn hex8(bytes: &[u8]) -> String {
    format!("{}…", &to_hex(bytes)[..16])
}

fn shield_config() -> ShieldConfig {
    ShieldConfig::builder()
        .region(
            "data",
            MemRange::new(0x1000, 64 * 1024),
            EngineSetConfig::default(),
        )
        .build()
        .expect("valid config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ===== Round 1: the IP Vendor releases the Bitstream Key.
    let mut bench = TestBench::new("examples.attested-tenant");
    let mut board = bench.fresh_board(b"die-attest-042")?;
    let product = bench.vendor.package_accelerator(
        "attest-demo-v1",
        shield_config(),
        b"<netlist>".to_vec(),
    )?;
    board.boot_medium.store(
        image_names::ACCELERATOR_BITSTREAM,
        product.encrypted_bitstream.0.clone(),
    );
    let mut kernel = secure_boot(&mut board)?;
    println!(
        "[boot]    kernel + staged bitstream measured: {}",
        hex8(&kernel.measurement()?.0)
    );
    let challenge = bench.vendor.challenge(&product.accel_id)?;
    println!("[vendor]  nonce {}", hex8(&challenge.nonce));
    let quote = kernel.quote(&challenge)?;
    println!("[kernel]  quote signed by AK {}", hex8(&quote.ak_public.0));
    let ticket = bench
        .vendor
        .release_bitstream_key(&product.accel_id, &quote)?;
    println!("[vendor]  device ✓ kernel + bitstream ✓ nonce ✓ → Bitstream Key sealed");
    let key_grant = kernel.redeem(&ticket)?;
    let bitstream = load_accelerator(&mut board, &key_grant)?;
    println!(
        "[kernel]  '{}' decrypted and loaded into the PR region ✓",
        bitstream.accel_id
    );
    match bench
        .vendor
        .release_bitstream_key(&product.accel_id, &quote)
    {
        Err(ShefError::AttestationFailed(AttestError::ReplayedNonce)) => {
            println!("[vendor]  replayed quote refused ✓");
        }
        other => panic!("replayed quote must be refused, got {other:?}"),
    }
    println!();

    // ===== Round 2: the Data Owner releases its DEK.
    // --- 1–2. Manufacturing + measured boot, bundled by the fixture:
    // a device with a burned key, a certified attestation root, and a
    // Security Kernel that has measured the demo Shield bitstream.
    let mut env = AttestationEnvironment::new(b"examples.attested-tenant")?;
    println!(
        "[boot]    Security Kernel operational, measurement {}",
        hex8(&env.measurement()?.0)
    );

    // --- 3. The Data Owner's verifier opens a session.
    let challenge = env.verifier_mut().challenge();
    println!("[chal]    nonce {}", hex8(&challenge.nonce));
    println!(
        "[chal]    verifier KEM share {}",
        hex8(&challenge.verifier_kem)
    );

    // --- 4. The kernel answers with an AK-signed quote.
    let quote = env.kernel_mut().quote(&challenge)?;
    println!("[quote]   measurement {}", hex8(&quote.measurement.0));
    println!("[quote]   AK public   {}", hex8(&quote.ak_public.0));
    println!("[quote]   signature   {}", hex8(&quote.signature.0));

    // --- 5. Verification + key provisioning. The DEK never crosses the
    // host in the clear: it is AES-GCM-sealed to the session key.
    let master = DataEncryptionKey::from_bytes([0x5Au8; 32]);
    let dek = master.tenant_key("alice");
    let ticket = env
        .verifier_mut()
        .verify_and_provision(&quote, "alice", dek.to_bytes())?;
    println!(
        "[ticket]  issued for '{}', session {}",
        ticket.tenant(),
        hex8(&ticket.session())
    );

    // --- 6. Only the measured kernel can unseal the DEK; the result is
    // the admission credential.
    let grant = env.kernel_mut().redeem(&ticket)?;
    println!("[redeem]  DEK unsealed inside the enclave ✓");

    // A second redeem of the same ticket must fail: one-shot sessions.
    match env.kernel_mut().redeem(&ticket) {
        Err(AttestError::UnknownSession) => println!("[redeem]  double-redeem refused ✓"),
        other => panic!("double redeem must fail, got {other:?}"),
    }

    // --- 7. Admission. The service pins the verifier key and only
    // seats tenants carrying a valid grant.
    let mut service = ShieldService::new(ServiceConfig::default(), env.verifier_public())?;
    let tenant = service.register_tenant("alice", shield_config(), &grant)?;
    println!("[admit]   tenant 'alice' registered via attestation ✓");

    // The attested DEK is live: a write/read round trip works.
    service.submit(
        tenant,
        ServiceRequest::Write {
            addr: 0x1000,
            data: vec![0xA1u8; 512],
            mode: AccessMode::Streaming,
        },
    )?;
    service.submit(
        tenant,
        ServiceRequest::Read {
            addr: 0x1000,
            len: 512,
            mode: AccessMode::Streaming,
        },
    )?;
    for c in service.drain() {
        if let Some(bytes) = c.payload.expect("clean run") {
            assert_eq!(bytes, vec![0xA1u8; 512]);
        }
    }
    println!("[datapath] shielded round trip under the attested DEK ✓");

    // --- Negative paths: what the admission gate stops.
    //
    // (a) A grant from a verifier the service does not trust.
    let mut rogue = AttestationEnvironment::new(b"examples.rogue-verifier")?;
    let rogue_grant = rogue.onboard("mallory", [0x66u8; 32])?;
    match service.register_tenant("mallory", shield_config(), &rogue_grant) {
        Err(ShefError::Fault(ShieldFault::AttestationRejected { reason, .. })) => {
            println!("[reject]  untrusted verifier: {reason} ✓");
        }
        other => panic!("rogue verifier must be rejected, got {other:?}"),
    }

    // (b) A replayed (already-admitted) credential, even under a new name.
    match service.register_tenant("alice-again", shield_config(), &grant) {
        Err(ShefError::Fault(ShieldFault::AttestationRejected { reason, .. })) => {
            println!("[reject]  replayed session: {reason} ✓");
        }
        other => panic!("replayed grant must be rejected, got {other:?}"),
    }

    // (c) The vendor's Bitstream-Key grant is no tenant credential.
    match service.register_tenant("attest-demo-v1", shield_config(), &key_grant) {
        Err(ShefError::Fault(ShieldFault::AttestationRejected { reason, .. })) => {
            println!("[reject]  vendor key grant: {reason} ✓");
        }
        other => panic!("vendor grant must be rejected, got {other:?}"),
    }

    println!("\nTwo key releases, one protocol: measure → quote → verify → seal → redeem.");
    Ok(())
}
