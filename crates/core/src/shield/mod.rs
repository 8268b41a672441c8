//! The ShEF Shield (§5): configurable isolated execution and secure I/O.
//!
//! The [`Shield`] wraps an accelerator with two protected faces:
//!
//! * a **memory interface** — a burst decoder routes every accelerator
//!   AXI4 burst to the engine set of its region, which transparently
//!   decrypts/verifies on reads and encrypts/MACs on writes;
//! * a **register interface** — authenticated encryption over the
//!   AXI4-Lite command path, optionally with address hiding.
//!
//! Accelerators program against the [`bus::MemoryBus`] abstraction,
//! which has a shielded implementation and a pass-through baseline, so
//! the benchmark harness measures both sides of every figure.

pub mod area;
pub mod bus;
pub mod chunk;
pub mod client;
pub mod config;
pub mod engine;
pub mod keys;
mod lru;
pub mod merkle;
pub mod pool;
pub mod regif;
pub mod service;
pub mod shard;
pub mod stream;
pub mod timing;

use shef_crypto::authenc::Sealed;
use shef_crypto::ecies::{EciesKeyPair, EciesPublicKey};
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;
use shef_telemetry::Telemetry;

use crate::ShefError;
pub use config::{EngineSetConfig, MemRange, RegionConfig, RegisterInterfaceConfig, ShieldConfig};
pub use engine::{AccessMode, EngineSet, EngineSetStats};
pub use keys::{DataEncryptionKey, KeyStorage, LoadKey};
pub use merkle::{MerkleConfig, MerkleStats, MerkleTree};
pub use pool::{PoolStats, TryRunOutcome, WorkerPool};
pub use regif::RegisterInterface;
pub use service::{Completion, RequestId, ServiceConfig, ServiceRequest, ShieldService, TenantId};
pub use shard::ShieldShard;
pub use stream::{StreamDirection, StreamEndpoint, StreamFrame};
pub use timing::BatchCost;

/// The Shield runtime instantiated in the PR region next to the
/// accelerator.
pub struct Shield {
    config: ShieldConfig,
    keys: KeyStorage,
    engine_sets: Vec<EngineSet>,
    regif: RegisterInterface,
    telemetry: Telemetry,
}

impl core::fmt::Debug for Shield {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shield")
            .field("regions", &self.config.regions.len())
            .field("provisioned", &self.is_provisioned())
            .finish_non_exhaustive()
    }
}

impl Shield {
    /// Instantiates a Shield from its compiled configuration and the IP
    /// Vendor's embedded private Shield Encryption Key.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: ShieldConfig, shield_keypair: EciesKeyPair) -> Result<Self, ShefError> {
        config.validate()?;
        let regif = RegisterInterface::new(config.register_interface.clone());
        Ok(Shield {
            config,
            keys: KeyStorage::new(shield_keypair),
            engine_sets: Vec::new(),
            regif,
            telemetry: Telemetry::new(),
        })
    }

    /// The Shield's telemetry registry. Every engine set built by
    /// [`Shield::provision_load_key`] reports its `shield.engine.*`
    /// instruments here; snapshot it with
    /// [`shef_telemetry::Telemetry::report`] for a run report.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replaces the Shield's registry with a shared one (e.g. the
    /// harness's per-run registry, also attached to the DRAM model and
    /// worker pool) and rebinds every live engine set onto it.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        for set in &mut self.engine_sets {
            set.attach_telemetry(telemetry);
        }
    }

    /// The compiled configuration.
    #[must_use]
    pub fn config(&self) -> &ShieldConfig {
        &self.config
    }

    /// The public half of the embedded Shield Encryption Key (what the
    /// IP Vendor publishes to Data Owners).
    #[must_use]
    pub fn public_key(&self) -> EciesPublicKey {
        self.keys.shield_public()
    }

    /// True once a Load Key has been accepted.
    #[must_use]
    pub fn is_provisioned(&self) -> bool {
        self.keys.is_provisioned()
    }

    /// Accepts a Load Key from the host, unlocking the data path
    /// (Fig. 3 step 8 → runtime).
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Crypto`] if the Load Key targets another
    /// Shield.
    pub fn provision_load_key(&mut self, load_key: &LoadKey) -> Result<(), ShefError> {
        self.keys.provision(load_key)?;
        let dek = self.keys.data_key()?.clone();
        self.engine_sets = self
            .config
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut set = EngineSet::new(
                    r.clone(),
                    i,
                    self.config.tag_base(i),
                    self.config.merkle_base(i),
                    &dek,
                );
                set.attach_telemetry(&self.telemetry);
                set
            })
            .collect();
        self.regif.set_key(dek.register_key());
        Ok(())
    }

    /// Ends the session: erases ephemeral keys and buffer contents.
    pub fn zeroize(&mut self) {
        self.keys.zeroize();
        self.engine_sets.clear();
        self.regif.zeroize();
    }

    fn set_for(&mut self, addr: u64) -> Result<&mut EngineSet, ShefError> {
        let idx = self
            .config
            .region_for(addr)
            .ok_or(ShefError::UnmappedAddress(addr))?;
        if self.engine_sets.is_empty() {
            return Err(ShefError::KeyNotProvisioned(
                "shield data path locked until a load key is provisioned".into(),
            ));
        }
        Ok(&mut self.engine_sets[idx])
    }

    /// Accelerator-side memory read through the burst decoder. Spans may
    /// cross region boundaries; each sub-span is served by its region's
    /// engine set, which fans its chunk crypto across `pool`'s lanes.
    ///
    /// # Errors
    ///
    /// * [`ShefError::UnmappedAddress`] if part of the span is outside
    ///   every region.
    /// * [`ShefError::IntegrityViolation`] on authentication failure.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        addr: u64,
        len: usize,
        mode: AccessMode,
        pool: &WorkerPool,
    ) -> Result<Vec<u8>, ShefError> {
        let mut out = Vec::new();
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let set = self.set_for(cur)?;
            let span_end = set.region().range.end().min(end);
            let take = (span_end - cur) as usize;
            let part = set.read(shell, dram, ledger, cur, take, mode, pool)?;
            if take == len {
                // One region serves the whole span: hand its buffer on.
                return Ok(part);
            }
            out.reserve(len - out.len());
            out.extend_from_slice(&part);
            cur = span_end;
        }
        Ok(out)
    }

    /// Accelerator-side memory write through the burst decoder.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Shield::read`].
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        addr: u64,
        data: &[u8],
        mode: AccessMode,
        pool: &WorkerPool,
    ) -> Result<(), ShefError> {
        let mut cur = addr;
        let end = addr + data.len() as u64;
        let mut offset = 0usize;
        while cur < end {
            let set = self.set_for(cur)?;
            let span_end = set.region().range.end().min(end);
            let take = (span_end - cur) as usize;
            set.write(
                shell,
                dram,
                ledger,
                cur,
                &data[offset..offset + take],
                mode,
                pool,
            )?;
            cur = span_end;
            offset += take;
        }
        Ok(())
    }

    /// Flushes all engine-set buffers (end of kernel); each engine set's
    /// dirty-line seals are fanned across `pool`'s lanes.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    pub fn flush(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        pool: &WorkerPool,
    ) -> Result<(), ShefError> {
        for set in &mut self.engine_sets {
            set.flush(shell, dram, ledger, pool)?;
        }
        Ok(())
    }

    /// The register interface (host and accelerator faces).
    pub fn registers(&mut self) -> &mut RegisterInterface {
        &mut self.regif
    }

    /// Host-side sealed register write (proxied by the host program).
    ///
    /// # Errors
    ///
    /// See [`RegisterInterface::host_write`].
    pub fn host_reg_write(&mut self, index: usize, sealed: &Sealed) -> Result<(), ShefError> {
        self.regif.host_write(index, sealed)
    }

    /// Host-side sealed register read.
    ///
    /// # Errors
    ///
    /// See [`RegisterInterface::host_read`].
    pub fn host_reg_read(&mut self, index: usize) -> Result<Sealed, ShefError> {
        self.regif.host_read(index)
    }

    /// Per-engine-set runtime statistics, in region order.
    #[must_use]
    pub fn engine_stats(&self) -> Vec<(String, EngineSetStats)> {
        self.engine_sets
            .iter()
            .map(|s| (s.region().name.clone(), s.stats()))
            .collect()
    }

    /// The Shield's area, per the Table 1 component model.
    #[must_use]
    pub fn area(&self) -> area::Resources {
        area::shield_area(&self.config)
    }

    /// Names of regions whose engine sets are poisoned (fail-stop
    /// containment after a detected integrity violation).
    #[must_use]
    pub fn poisoned_regions(&self) -> Vec<String> {
        self.engine_sets
            .iter()
            .filter(|s| s.poisoned())
            .map(|s| s.region().name.clone())
            .collect()
    }

    /// Clears containment state on every engine set, dropping all
    /// buffered lines (see [`engine::EngineSet::clear_poison`]).
    pub fn clear_poison(&mut self) {
        for set in &mut self.engine_sets {
            set.clear_poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_fpga::clock::CostLedger;

    fn shield() -> (Shield, Shell, Dram, CostLedger, DataEncryptionKey) {
        let config = ShieldConfig::builder()
            .region(
                "in",
                MemRange::new(0, 4096),
                EngineSetConfig {
                    buffer_bytes: 1024,
                    ..EngineSetConfig::default()
                },
            )
            .region(
                "out",
                MemRange::new(1 << 20, 4096),
                EngineSetConfig {
                    zero_fill_writes: true,
                    ..EngineSetConfig::default()
                },
            )
            .build()
            .unwrap();
        let kp = EciesKeyPair::from_seed(b"shield-test");
        let mut shield = Shield::new(config, kp).unwrap();
        let dek = DataEncryptionKey::from_bytes([0x44u8; 32]);
        let lk = dek.to_load_key(&shield.public_key());
        shield.provision_load_key(&lk).unwrap();
        (
            shield,
            Shell::new(),
            Dram::f1_default(),
            CostLedger::new(),
            dek,
        )
    }

    #[test]
    fn unprovisioned_shield_locks_data_path() {
        let pool = WorkerPool::new(1);
        let config = ShieldConfig::builder()
            .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
            .build()
            .unwrap();
        let mut s = Shield::new(config, EciesKeyPair::from_seed(b"x")).unwrap();
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 30);
        let mut ledger = CostLedger::new();
        assert!(matches!(
            s.read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                64,
                AccessMode::Streaming,
                &pool
            ),
            Err(ShefError::KeyNotProvisioned(_))
        ));
    }

    #[test]
    fn end_to_end_data_flow() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shield();
        // Data Owner provisions encrypted input.
        let input: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let region = shield.config().regions[0].clone();
        let enc = client::encrypt_region(&dek, &region, &input, 0);
        dram.tamper_write(0, &enc.ciphertext); // host DMA (content identical)
        dram.tamper_write(shield.config().tag_base(0), &enc.tags);
        // Accelerator reads input, writes doubled bytes to output.
        let data = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                4096,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(data, input);
        let doubled: Vec<u8> = data.iter().map(|b| b.wrapping_mul(2)).collect();
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                1 << 20,
                &doubled,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .unwrap();
        // Data Owner reads back and decrypts output (epoch 0: write-once).
        let out_region = shield.config().regions[1].clone();
        let ct = dram.tamper_read(1 << 20, 4096);
        let tags = dram.tamper_read(
            shield.config().tag_base(1),
            client::tag_bytes_for(4096, 512),
        );
        let out = client::decrypt_region(&dek, &out_region, &ct, &tags, &client::uniform_epochs(0))
            .unwrap();
        assert_eq!(out, doubled);
    }

    #[test]
    fn unmapped_access_rejected() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, _) = shield();
        assert!(matches!(
            shield.read(
                &mut shell,
                &mut dram,
                &mut ledger,
                1 << 30,
                64,
                AccessMode::Streaming,
                &pool
            ),
            Err(ShefError::UnmappedAddress(_))
        ));
    }

    #[test]
    fn wrong_load_key_rejected() {
        let config = ShieldConfig::builder()
            .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
            .build()
            .unwrap();
        let mut s = Shield::new(config, EciesKeyPair::from_seed(b"right")).unwrap();
        let other = EciesKeyPair::from_seed(b"wrong");
        let dek = DataEncryptionKey::from_bytes([1u8; 32]);
        let lk = dek.to_load_key(&other.public_key());
        assert!(s.provision_load_key(&lk).is_err());
        assert!(!s.is_provisioned());
    }

    #[test]
    fn zeroize_locks_everything_again() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, _) = shield();
        shield.zeroize();
        assert!(!shield.is_provisioned());
        assert!(shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                64,
                AccessMode::Streaming,
                &pool
            )
            .is_err());
    }

    #[test]
    fn shield_telemetry_aggregates_across_regions() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shield();
        let input: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let region = shield.config().regions[0].clone();
        let enc = client::encrypt_region(&dek, &region, &input, 0);
        dram.tamper_write(0, &enc.ciphertext);
        dram.tamper_write(shield.config().tag_base(0), &enc.tags);
        let data = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                4096,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                1 << 20,
                &data,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .unwrap();
        let report = shield.telemetry().report();
        // Both regions report into the one registry: input-region reads
        // and output-region writes land on the same counters.
        assert_eq!(report.counters["shield.engine.bytes_read"], 4096);
        assert_eq!(report.counters["shield.engine.bytes_written"], 4096);
        assert!(report.counters["shield.engine.misses"] >= 8);
        assert!(report.counters["shield.engine.writebacks"] >= 8);
    }

    #[test]
    fn attach_telemetry_rebinds_live_engine_sets() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, _) = shield();
        let shared = Telemetry::new();
        shield.attach_telemetry(&shared);
        assert!(shield.telemetry().same_registry(&shared));
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                1 << 20,
                &[9u8; 512],
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(shared.report().counters["shield.engine.bytes_written"], 512);
    }

    #[test]
    fn area_reflects_configuration() {
        let (shield, ..) = shield();
        let r = shield.area();
        assert!(r.lut > 0);
        // Two engine sets with default AES-16x + HMAC.
        let expected_lut = area::component::CONTROLLER.lut
            + area::component::REG_INTERFACE.lut
            + area::component::AES_16X.lut
            + area::component::HMAC.lut
            + 2 * (area::component::ENGINE_SET_BASE.lut
                + area::component::AES_16X.lut
                + area::component::HMAC.lut);
        assert_eq!(r.lut, expected_lut);
    }
}
