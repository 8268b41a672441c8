//! Differential conformance: the multi-tenant `ShieldService` with a
//! single tenant must be an exact functional wrapper around the bare
//! Shield datapath. For every workload, scheme and lane count, the same
//! trace driven through `ShieldService::{submit,drain}` and through
//! `Shield::{read,write,flush}` (keyed with the
//! same tenant-derived DEK) must produce byte-identical read payloads,
//! byte-identical DRAM ciphertext and tag arenas, and an identical
//! datapath cost ledger — the shard arbiter may only ever charge its
//! own clock, never the tenant.

use shef_core::shield::merkle::MerkleConfig;
use shef_core::shield::{
    AccessMode, DataEncryptionKey, EngineSetConfig, Freshness, MemRange, ServiceConfig,
    ServiceRequest, Shield, ShieldConfig, ShieldService, WorkerPool,
};
use shef_crypto::ecies::EciesKeyPair;
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

const REGION_BASE: u64 = 0x1000;
const CHUNK: usize = 512;
const NUM_CHUNKS: u64 = 16;
const REGION_LEN: u64 = CHUNK as u64 * NUM_CHUNKS;
const TENANT: &str = "solo";

/// Deterministic 64-bit LCG (MMIX constants), matching the testkit's.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write { chunk: u64, fill: u8 },
    Read { chunk: u64 },
    Flush,
}

/// Full-chunk trace: writes, reads of previously written chunks, and
/// flushes, identical on both sides of the differential.
fn trace(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = Lcg(seed);
    let first = rng.below(NUM_CHUNKS);
    let mut written = vec![first];
    let mut out = vec![
        Op::Write {
            chunk: first,
            fill: rng.below(256) as u8,
        },
        Op::Read { chunk: first },
    ];
    while out.len() < ops {
        let kind = rng.below(100);
        if kind < 50 {
            let chunk = rng.below(NUM_CHUNKS);
            if !written.contains(&chunk) {
                written.push(chunk);
            }
            out.push(Op::Write {
                chunk,
                fill: rng.below(256) as u8,
            });
        } else if kind < 90 {
            out.push(Op::Read {
                chunk: written[rng.below(written.len() as u64) as usize],
            });
        } else {
            out.push(Op::Flush);
        }
    }
    out
}

fn chunk_data(fill: u8) -> Vec<u8> {
    (0..CHUNK).map(|j| fill.wrapping_add(j as u8)).collect()
}

fn shield_config(scheme: Freshness) -> ShieldConfig {
    ShieldConfig::builder()
        .region(
            "data",
            MemRange::new(REGION_BASE, REGION_LEN),
            EngineSetConfig {
                chunk_size: CHUNK,
                buffer_bytes: CHUNK * 4,
                freshness: scheme,
                ..EngineSetConfig::default()
            },
        )
        .build()
        .expect("valid config")
}

/// Drives `ops` through a one-tenant service; returns the read
/// payloads in completion order plus the final tenant state.
fn run_service(
    scheme: Freshness,
    lanes: usize,
    ops: &[Op],
) -> (Vec<Vec<u8>>, CostLedger, Vec<u8>, Vec<u8>) {
    let master = DataEncryptionKey::from_bytes([0x33u8; 32]);
    let mut env = shef_attest::AttestationEnvironment::new(b"core.service-equivalence")
        .expect("attestation fixture");
    let mut service = ShieldService::new(
        ServiceConfig {
            shards: 1,
            lanes_per_shard: lanes,
            queue_capacity: 256,
            tenant_quota: 256,
        },
        env.verifier_public(),
    )
    .expect("service constructs");
    let grant = env
        .onboard(TENANT, master.tenant_key(TENANT).to_bytes())
        .expect("tenant attests");
    let tenant = service
        .register_tenant(TENANT, shield_config(scheme), &grant)
        .expect("tenant registers");
    for op in ops {
        let request = match *op {
            Op::Write { chunk, fill } => ServiceRequest::Write {
                addr: REGION_BASE + chunk * CHUNK as u64,
                data: chunk_data(fill),
                mode: AccessMode::Streaming,
            },
            Op::Read { chunk } => ServiceRequest::Read {
                addr: REGION_BASE + chunk * CHUNK as u64,
                len: CHUNK,
                mode: AccessMode::Streaming,
            },
            Op::Flush => ServiceRequest::Flush,
        };
        service.submit(tenant, request).expect("admitted");
    }
    let completions = service.drain();
    assert_eq!(completions.len(), ops.len(), "every request completes");
    let mut reads = Vec::new();
    for c in completions {
        if let Some(bytes) = c.payload.expect("clean trace") {
            reads.push(bytes);
        }
    }
    // Final flush so the DRAM images are comparable.
    service
        .submit(tenant, ServiceRequest::Flush)
        .expect("admitted");
    for c in service.drain() {
        c.payload.expect("final flush is clean");
    }
    let ledger = service.tenant_ledger(tenant).clone();
    let config = shield_config(scheme);
    let dram = service.tenant_dram(tenant);
    let ciphertext = dram.tamper_read(REGION_BASE, REGION_LEN as usize);
    let tags = dram.tamper_read(config.tag_base(0), (NUM_CHUNKS * 16) as usize);
    (reads, ledger, ciphertext, tags)
}

/// Drives the same ops straight through the bare Shield datapath, keyed
/// with the tenant-derived DEK the service provisions for `TENANT`.
fn run_parallel(
    scheme: Freshness,
    lanes: usize,
    ops: &[Op],
) -> (Vec<Vec<u8>>, CostLedger, Vec<u8>, Vec<u8>) {
    let master = DataEncryptionKey::from_bytes([0x33u8; 32]);
    let dek = master.tenant_key(TENANT);
    let config = shield_config(scheme);
    let mut shield = Shield::new(
        config.clone(),
        EciesKeyPair::from_seed(b"service-equivalence-twin"),
    )
    .expect("shield constructs");
    shield
        .provision_load_key(&dek.to_load_key(&shield.public_key()))
        .expect("key provisioning");
    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    let mut ledger = CostLedger::new();
    let pool = WorkerPool::new(lanes);
    let mut reads = Vec::new();
    for op in ops {
        match *op {
            Op::Write { chunk, fill } => shield
                .write(
                    &mut shell,
                    &mut dram,
                    &mut ledger,
                    REGION_BASE + chunk * CHUNK as u64,
                    &chunk_data(fill),
                    AccessMode::Streaming,
                    &pool,
                )
                .expect("clean trace"),
            Op::Read { chunk } => reads.push(
                shield
                    .read(
                        &mut shell,
                        &mut dram,
                        &mut ledger,
                        REGION_BASE + chunk * CHUNK as u64,
                        CHUNK,
                        AccessMode::Streaming,
                        &pool,
                    )
                    .expect("clean trace"),
            ),
            Op::Flush => shield
                .flush(&mut shell, &mut dram, &mut ledger, &pool)
                .expect("clean trace"),
        }
    }
    shield
        .flush(&mut shell, &mut dram, &mut ledger, &pool)
        .expect("final flush is clean");
    let ciphertext = dram.tamper_read(REGION_BASE, REGION_LEN as usize);
    let tags = dram.tamper_read(config.tag_base(0), (NUM_CHUNKS * 16) as usize);
    (reads, ledger, ciphertext, tags)
}

fn assert_equivalent(scheme: Freshness, lanes: usize, seed: u64) {
    let ops = trace(seed, 32);
    let (svc_reads, svc_ledger, svc_ct, svc_tags) = run_service(scheme, lanes, &ops);
    let (par_reads, par_ledger, par_ct, par_tags) = run_parallel(scheme, lanes, &ops);
    assert_eq!(
        svc_reads, par_reads,
        "{scheme:?} {lanes} lanes seed {seed}: read payloads drifted"
    );
    assert_eq!(
        svc_ledger, par_ledger,
        "{scheme:?} {lanes} lanes seed {seed}: tenant ledger drifted — the arbiter must \
         charge only the shard clock"
    );
    assert_eq!(
        svc_ct, par_ct,
        "{scheme:?} {lanes} lanes seed {seed}: DRAM ciphertext drifted"
    );
    assert_eq!(
        svc_tags, par_tags,
        "{scheme:?} {lanes} lanes seed {seed}: DRAM tag arena drifted"
    );
}

#[test]
fn one_tenant_service_is_bit_identical_mac_only() {
    for lanes in [1usize, 2, 4] {
        for seed in [7u64, 21] {
            assert_equivalent(Freshness::None, lanes, seed);
        }
    }
}

#[test]
fn one_tenant_service_is_bit_identical_counters() {
    for lanes in [1usize, 2, 4] {
        for seed in [7u64, 21] {
            assert_equivalent(Freshness::Counters, lanes, seed);
        }
    }
}

#[test]
fn one_tenant_service_is_bit_identical_merkle() {
    for lanes in [1usize, 2, 4] {
        for seed in [7u64, 21] {
            assert_equivalent(
                Freshness::Merkle(MerkleConfig {
                    arity: 4,
                    node_cache_bytes: 512,
                }),
                lanes,
                seed,
            );
        }
    }
}

/// Different tenant names derive different key domains: the twin keyed
/// with the *wrong* tenant's DEK must produce different ciphertext for
/// the same plaintext trace.
#[test]
fn tenant_key_domain_changes_the_ciphertext() {
    let ops = vec![Op::Write { chunk: 0, fill: 9 }, Op::Flush];
    let (_, _, svc_ct, _) = run_service(Freshness::None, 2, &ops);

    let master = DataEncryptionKey::from_bytes([0x33u8; 32]);
    let other = master.tenant_key("someone-else");
    let config = shield_config(Freshness::None);
    let mut shield = Shield::new(config, EciesKeyPair::from_seed(b"other-tenant-twin"))
        .expect("shield constructs");
    shield
        .provision_load_key(&other.to_load_key(&shield.public_key()))
        .expect("key provisioning");
    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    let mut ledger = CostLedger::new();
    let pool = WorkerPool::new(2);
    shield
        .write(
            &mut shell,
            &mut dram,
            &mut ledger,
            REGION_BASE,
            &chunk_data(9),
            AccessMode::Streaming,
            &pool,
        )
        .expect("clean write");
    shield
        .flush(&mut shell, &mut dram, &mut ledger, &pool)
        .expect("clean flush");
    let other_ct = dram.tamper_read(REGION_BASE, CHUNK);
    assert_ne!(
        svc_ct[..CHUNK],
        other_ct[..],
        "same plaintext under different tenant key domains must not collide"
    );
}
