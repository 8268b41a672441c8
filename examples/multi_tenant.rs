//! Multiple isolated execution environments on one fabric (§3).
//!
//! "The IP Vendor can secure multiple accelerator modules with separate
//! Shield modules, enabling multiple isolated execution environments."
//! Two tenants share one FPGA: each gets its own Shield with its own
//! embedded Shield Encryption Key, provisions its own Data Encryption
//! Key, and operates on disjoint regions of the shared device DRAM.
//!
//! The example shows the three isolation properties a co-tenant (or the
//! CSP's Shell) cannot break:
//!
//! 1. a Load Key built for tenant A's Shield is useless to tenant B's;
//! 2. neither Shield can even address the other's regions;
//! 3. a tenant (or the Shell) tampering with the other's ciphertext is
//!    detected by the victim, not silently absorbed.
//!
//! Run with: `cargo run --release --example multi_tenant`

use shef::core::shield::{
    client, AccessMode, DataEncryptionKey, EngineSetConfig, Freshness, MemRange, Shield,
    ShieldConfig, WorkerPool,
};
use shef::core::ShefError;
use shef::crypto::ecies::EciesKeyPair;
use shef::fpga::clock::CostLedger;
use shef::fpga::dram::Dram;
use shef::fpga::shell::Shell;

fn tenant_shield(name: &str, base: u64, seed: &[u8]) -> Result<Shield, ShefError> {
    let config = ShieldConfig::builder()
        .region(
            name,
            MemRange::new(base, 256 * 1024),
            EngineSetConfig {
                buffer_bytes: 8 * 1024,
                freshness: Freshness::Counters,
                ..EngineSetConfig::default()
            },
        )
        .build()?;
    Shield::new(config, EciesKeyPair::from_seed(seed))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pool = WorkerPool::new(1);
    // One physical device, two Shield modules in the PR region.
    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    let mut ledger = CostLedger::new();

    let mut alice = tenant_shield("alice-genomes", 0, b"vendor-shield-alice")?;
    let mut bob = tenant_shield("bob-ledgers", 1 << 26, b"vendor-shield-bob")?;

    // Each tenant provisions their own Data Encryption Key.
    let dek_alice = DataEncryptionKey::from_bytes([0xA1u8; 32]);
    let dek_bob = DataEncryptionKey::from_bytes([0xB0u8; 32]);
    alice.provision_load_key(&dek_alice.to_load_key(&alice.public_key()))?;
    bob.provision_load_key(&dek_bob.to_load_key(&bob.public_key()))?;
    println!("[setup]   two Shields provisioned with independent keys");

    // Property 1: cross-Shield Load Keys are rejected.
    let mut impostor = tenant_shield("alice-genomes", 0, b"vendor-shield-alice-2")?;
    let wrong = impostor.provision_load_key(&dek_bob.to_load_key(&bob.public_key()));
    assert!(wrong.is_err());
    println!("[isolate] Bob's Load Key on another Shield → rejected ✓");

    // Tenants do their work.
    let genome = {
        let mut v = b"ACGTACGTTTAGGCCA".repeat(32);
        v.truncate(512);
        v
    };
    alice.write(
        &mut shell,
        &mut dram,
        &mut ledger,
        0,
        &genome,
        AccessMode::Streaming,
        &pool,
    )?;
    alice.flush(&mut shell, &mut dram, &mut ledger, &pool)?;
    bob.write(
        &mut shell,
        &mut dram,
        &mut ledger,
        1 << 26,
        &[0x42u8; 512],
        AccessMode::Streaming,
        &pool,
    )?;
    bob.flush(&mut shell, &mut dram, &mut ledger, &pool)?;
    println!("[run]     both tenants wrote encrypted state to shared DRAM");

    // Property 2: the burst decoder confines each Shield to its regions.
    let foreign = bob.read(
        &mut shell,
        &mut dram,
        &mut ledger,
        0,
        64,
        AccessMode::Streaming,
        &pool,
    );
    assert!(matches!(foreign, Err(ShefError::UnmappedAddress(_))));
    println!("[isolate] Bob's Shield reading Alice's region → unmapped ✓");

    // And even with raw DRAM access (the Shell's view), Alice's data is
    // ciphertext under a key Bob never sees.
    let raw = dram.tamper_read(0, 512);
    assert_ne!(raw, genome);
    println!("[isolate] raw DRAM view of Alice's region is ciphertext ✓");

    // Property 3: cross-tenant tampering is detected by the victim.
    let mut flipped = dram.tamper_read(128, 1);
    flipped[0] ^= 0x80;
    dram.tamper_write(128, &flipped);
    let tampered = alice.read(
        &mut shell,
        &mut dram,
        &mut ledger,
        0,
        512,
        AccessMode::Streaming,
        &pool,
    );
    assert!(matches!(tampered, Err(ShefError::IntegrityViolation(_))));
    println!("[detect]  Alice's Shield flags the tampered chunk ✓");

    // Bob is unaffected throughout.
    let bob_data = bob.read(
        &mut shell,
        &mut dram,
        &mut ledger,
        1 << 26,
        512,
        AccessMode::Streaming,
        &pool,
    )?;
    assert_eq!(bob_data, vec![0x42u8; 512]);
    println!("[detect]  Bob's Shield unaffected ✓");

    // Data Owners decrypt their outputs client-side as usual.
    let region = bob.config().regions[0].clone();
    let ct = dram.tamper_read(1 << 26, 512);
    let tags = dram.tamper_read(bob.config().tag_base(0), client::tag_bytes_for(512, 512));
    // One write epoch under counters.
    let plain = client::decrypt_region(&dek_bob, &region, &ct, &tags, &client::uniform_epochs(1))?;
    assert_eq!(plain, vec![0x42u8; 512]);
    println!("[readout] Bob's Data Owner decrypted his results off-device ✓");

    // --- The managed path: ShieldService does all of the above for you.
    //
    // Instead of hand-wiring Shields onto a shared DRAM, a CSP-side
    // service can host many tenants, each with a private Shield, DRAM
    // namespace, and a DEK the tenant sealed to the enclave over the
    // remote-attestation protocol (see `examples/attested_tenant.rs`
    // for the full walk-through). Admission requires a ticket from the
    // verifier the service trusts; requests then pass admission control
    // and are dispatched deterministically across shards.
    use shef::attest::AttestationEnvironment;
    use shef::core::shield::{ServiceConfig, ServiceRequest, ShieldService};

    let master = DataEncryptionKey::from_bytes([0x5Eu8; 32]);
    let mut env = AttestationEnvironment::new(b"examples.multi-tenant")?;
    let mut service = ShieldService::new(
        ServiceConfig {
            shards: 2,
            lanes_per_shard: 2,
            queue_capacity: 16,
            tenant_quota: 8,
        },
        env.verifier_public(),
    )?;
    let svc_config = || {
        ShieldConfig::builder()
            .region(
                "scratch",
                MemRange::new(0x1000, 64 * 1024),
                EngineSetConfig::default(),
            )
            .build()
            .expect("valid config")
    };
    let grant_alice = env.onboard("alice", master.tenant_key("alice").to_bytes())?;
    let grant_bob = env.onboard("bob", master.tenant_key("bob").to_bytes())?;
    let t_alice = service.register_tenant("alice", svc_config(), &grant_alice)?;
    let t_bob = service.register_tenant("bob", svc_config(), &grant_bob)?;

    // Same address, different tenants: namespaces and keys are private.
    for (tenant, byte) in [(t_alice, 0xACu8), (t_bob, 0xB7u8)] {
        service.submit(
            tenant,
            ServiceRequest::Write {
                addr: 0x1000,
                data: vec![byte; 512],
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
    }
    let completions = service.drain();
    assert_eq!(completions.len(), 4);
    for c in &completions {
        let expect = if c.tenant == t_alice { 0xACu8 } else { 0xB7u8 };
        if let Some(bytes) = c.payload.as_ref().expect("clean run") {
            assert_eq!(bytes, &vec![expect; 512]);
        }
    }
    let snapshot = service.telemetry().report();
    println!(
        "[service] managed path: {} requests admitted, {} completed across {} shards ✓",
        snapshot.counters["shield.service.admitted"],
        snapshot.counters["shield.service.completed"],
        service.shard_count(),
    );

    println!();
    println!("multi-tenant isolation: keys ✓ addressing ✓ tamper detection ✓ service ✓");
    Ok(())
}
