//! Guards the meta-crate re-export wiring: one end-to-end path that
//! touches every façade (`shef::crypto` → `shef::fpga` →
//! `shef::core::shield` → `shef::accel`), so a broken `pub use` in
//! `src/lib.rs` fails this test rather than only downstream users.

use shef::core::shield::{
    client, AccessMode, DataEncryptionKey, EngineSetConfig, MemRange, Shield, ShieldConfig,
    WorkerPool,
};
use shef::crypto::authenc::{AuthEncKey, MacAlgorithm};
use shef::crypto::drbg::HmacDrbg;
use shef::fpga::clock::CostLedger;
use shef::fpga::dram::Dram;
use shef::fpga::shell::Shell;

const REGION_BASE: u64 = 0x1000;
const REGION_LEN: u64 = 8 * 1024;

/// `shef::crypto` primitives are reachable and functional through the
/// re-export.
#[test]
fn crypto_facade_seals_and_opens() {
    let mut drbg = HmacDrbg::from_seed(b"meta-reexport-test");
    let master = drbg.generate_array::<32>();
    let mut key = AuthEncKey::from_bytes(master, MacAlgorithm::HmacSha256);
    let sealed = key.seal(b"facade payload", b"ad");
    assert_eq!(
        key.open(&sealed, b"ad").expect("tag verifies"),
        b"facade payload"
    );
}

/// A Shield built through `shef::core` runs against `shef::fpga`
/// hardware models, with data staged via the client helpers and crypto
/// from `shef::crypto` underneath — the full cross-crate path.
#[test]
fn shield_round_trip_through_facades() {
    let pool = WorkerPool::new(1);
    let region = MemRange::new(REGION_BASE, REGION_LEN);
    let config = ShieldConfig::builder()
        .region("data", region, EngineSetConfig::default())
        .build()
        .expect("valid config");

    let mut shield = Shield::new(
        config.clone(),
        shef::crypto::ecies::EciesKeyPair::from_seed(b"meta-reexport-shield"),
    )
    .expect("shield constructs");

    // Provision the data-encryption key exactly as a Data Owner would.
    let dek = DataEncryptionKey::from_bytes([0x42u8; 32]);
    let load_key = dek.to_load_key(&shield.public_key());
    shield
        .provision_load_key(&load_key)
        .expect("key provisioning");

    // Stage encrypted memory in adversary-visible DRAM.
    let mut dram = Dram::f1_default();
    let plaintext: Vec<u8> = (0..REGION_LEN).map(|i| (i % 251) as u8).collect();
    let enc = client::encrypt_region(&dek, &config.regions[0], &plaintext, 0);
    dram.tamper_write(REGION_BASE, &enc.ciphertext);
    dram.tamper_write(config.tag_base(0), &enc.tags);

    // Read it back through the Shield's memory bus.
    let mut shell = Shell::new();
    let mut ledger = CostLedger::new();
    let got = shield
        .read(
            &mut shell,
            &mut dram,
            &mut ledger,
            REGION_BASE,
            REGION_LEN as usize,
            AccessMode::Streaming,
            &pool,
        )
        .expect("shielded read");
    assert_eq!(got, plaintext);

    // Writes flow back out encrypted: after a write + flush the
    // ciphertext in DRAM differs from the plaintext we wrote.
    let update = vec![0xA5u8; 64];
    shield
        .write(
            &mut shell,
            &mut dram,
            &mut ledger,
            REGION_BASE,
            &update,
            AccessMode::Streaming,
            &pool,
        )
        .expect("shielded write");
    shield
        .flush(&mut shell, &mut dram, &mut ledger, &pool)
        .expect("flush");
    let in_dram = dram.tamper_read(REGION_BASE, 64);
    assert_ne!(in_dram, update, "DRAM must hold ciphertext, not plaintext");
}

/// `shef::telemetry` is reachable and its registry round-trips through
/// the exporters.
#[test]
fn telemetry_facade_exports_reports() {
    let telemetry = shef::telemetry::Telemetry::new();
    telemetry.counter("facade.hits").add(3);
    telemetry.trace("facade.phase", 10, 42);
    let report = telemetry.report();
    assert!(report
        .to_json()
        .starts_with("{\"schema\": \"shef-telemetry/v1\""));
    assert!(report.to_prometheus().contains("facade_hits 3"));
    assert_eq!(report.scopes["facade.phase"].total_cycles, 32);
}

/// `shef::attest` is reachable through the façade: a full
/// challenge → quote → verify → redeem round trips the sealed DEK.
#[test]
fn attest_facade_onboards_a_tenant() {
    use shef::attest::AttestationEnvironment;

    let mut env = AttestationEnvironment::new(b"meta-reexport-attest").expect("fixture");
    let grant = env
        .onboard("alice", [0x42u8; 32])
        .expect("honest onboarding");
    assert_eq!(grant.tenant(), "alice");
    assert_eq!(grant.data_key(), [0x42u8; 32]);
    assert_eq!(
        grant.ticket().measurement(),
        env.measurement().expect("operational kernel")
    );
}

/// The multi-tenant service is reachable through the façade and serves
/// two isolated tenants end to end (admission via `shef::attest`).
#[test]
fn service_facade_serves_two_tenants() {
    use shef::attest::AttestationEnvironment;
    use shef::core::shield::{AccessMode, ServiceConfig, ServiceRequest, ShieldService};

    let region = MemRange::new(REGION_BASE, REGION_LEN);
    let tenant_config = || {
        ShieldConfig::builder()
            .region("data", region, EngineSetConfig::default())
            .build()
            .expect("valid config")
    };
    let mut env = AttestationEnvironment::new(b"meta-reexport-service").expect("fixture");
    let master = DataEncryptionKey::from_bytes([0x17u8; 32]);
    let mut service = ShieldService::new(ServiceConfig::default(), env.verifier_public())
        .expect("service constructs");
    let mut onboard = |name: &str| {
        env.onboard(name, master.tenant_key(name).to_bytes())
            .expect("tenant attests")
    };
    let grant_a = onboard("alice");
    let grant_b = onboard("bob");
    let a = service
        .register_tenant("alice", tenant_config(), &grant_a)
        .expect("tenant a");
    let b = service
        .register_tenant("bob", tenant_config(), &grant_b)
        .expect("tenant b");

    let payload_a = vec![0xAAu8; 512];
    let payload_b = vec![0xBBu8; 512];
    for (tenant, payload) in [(a, &payload_a), (b, &payload_b)] {
        service
            .submit(
                tenant,
                ServiceRequest::Write {
                    addr: REGION_BASE,
                    data: payload.clone(),
                    mode: AccessMode::Streaming,
                },
            )
            .expect("admitted");
        service
            .submit(
                tenant,
                ServiceRequest::Read {
                    addr: REGION_BASE,
                    len: payload.len(),
                    mode: AccessMode::Streaming,
                },
            )
            .expect("admitted");
    }
    let completions = service.drain();
    assert_eq!(completions.len(), 4, "every admitted request completes");
    for c in &completions {
        let expect = if c.tenant == a {
            &payload_a
        } else {
            &payload_b
        };
        if let Some(bytes) = c.payload.as_ref().expect("clean run") {
            assert_eq!(bytes, expect, "same address, private namespaces");
        }
    }
}

/// The accelerator façade drives the same Shield machinery end-to-end.
#[test]
fn accel_facade_runs_shielded_vecadd() {
    let pool = WorkerPool::new(1);
    use shef::accel::harness::run_shielded_parallel;
    use shef::accel::vecadd::VectorAdd;
    use shef::accel::CryptoProfile;

    let mut accel = VectorAdd::new(1 << 12, 7);
    let report = run_shielded_parallel(&mut accel, &CryptoProfile::AES128_16X, 7, &pool)
        .expect("shielded vecadd");
    assert!(
        report.outputs_verified,
        "shielded output must match the golden model"
    );
}
