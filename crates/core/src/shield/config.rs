//! Shield configuration: the IP Vendor's knobs (§5.2.2).
//!
//! "The Shield's memory interface is designed to allow IP Vendors to
//! configure its features and performance, enabling bespoke TEEs
//! customized to each accelerator." A [`ShieldConfig`] carries:
//!
//! * a **partition map** of memory regions, each mapped to one engine set;
//! * per-engine-set **cryptographic engines** (AES count, S-box
//!   parallelism, key size; HMAC or PMAC, MAC engine count);
//! * per-region **chunk size** `C_mem`;
//! * optional **on-chip buffer** (a cache with `C_mem`-sized lines);
//! * optional **freshness counters** (the paper's lightweight alternative
//!   to Bonsai Merkle Trees);
//! * the streaming-write **zero-fill** optimization;
//! * the register-interface options, including address hiding.

use shef_crypto::aes::{AesKeySize, SBoxParallelism};
use shef_crypto::authenc::MacAlgorithm;

use super::merkle::MerkleConfig;
use crate::wire::{Reader, Writer};
use crate::ShefError;

/// A half-open address range `[start, start + len)` in device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRange {
    /// First byte address.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
}

impl MemRange {
    /// Creates a range.
    #[must_use]
    pub fn new(start: u64, len: u64) -> Self {
        MemRange { start, len }
    }

    /// One past the last byte.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// True if `addr` falls inside the range.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// True if the full `[addr, addr+len)` window fits inside the range.
    #[must_use]
    pub fn contains_span(&self, addr: u64, len: usize) -> bool {
        self.contains(addr)
            && addr
                .checked_add(len as u64)
                .is_some_and(|end| end <= self.end())
    }

    /// True if two ranges overlap.
    #[must_use]
    pub fn overlaps(&self, other: &MemRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// Configuration of one engine set (§5.2.2 "each engine set includes
/// encryption and authentication engines alongside on-chip buffers and
/// counters").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSetConfig {
    /// Number of AES engines in the set.
    pub aes_engines: usize,
    /// S-box duplication per AES engine (the 4x/16x of the paper).
    pub sbox: SBoxParallelism,
    /// AES key size (128 or 256 bits), fixed at bitstream compile time.
    pub key_size: AesKeySize,
    /// MAC engine kind: HMAC (default) or PMAC.
    pub mac: MacAlgorithm,
    /// Number of MAC engines in the set.
    pub mac_engines: usize,
    /// Authenticated-encryption chunk size `C_mem` in bytes.
    pub chunk_size: usize,
    /// On-chip buffer capacity in bytes (0 disables the buffer).
    pub buffer_bytes: usize,
    /// Enable per-chunk freshness counters (replay protection).
    pub counters: bool,
    /// Zero-fill write misses instead of reading the old chunk
    /// ("if the corresponding chunk is only written to once and not
    /// read … the IP Vendor can simply zero-out the on-chip buffer").
    pub zero_fill_writes: bool,
    /// Replay protection via a DRAM-resident Bonsai Merkle Tree over
    /// counters — the CPU-TEE baseline the paper's on-chip counter
    /// scheme is measured against (§5.2.2). Mutually exclusive with
    /// [`counters`](Self::counters).
    pub merkle: Option<MerkleConfig>,
}

impl Default for EngineSetConfig {
    fn default() -> Self {
        EngineSetConfig {
            aes_engines: 1,
            sbox: SBoxParallelism::X16,
            key_size: AesKeySize::Aes128,
            mac: MacAlgorithm::HmacSha256,
            mac_engines: 1,
            chunk_size: 512,
            buffer_bytes: 0,
            counters: false,
            zero_fill_writes: false,
            merkle: None,
        }
    }
}

impl EngineSetConfig {
    /// Short human-readable description, e.g. `AES-128/16x ×4 + PMAC ×4`.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{}/{} ×{} + {} ×{}, C={}B{}{}",
            self.key_size,
            self.sbox,
            self.aes_engines,
            self.mac,
            self.mac_engines,
            self.chunk_size,
            if self.buffer_bytes > 0 {
                format!(", buf={}KB", self.buffer_bytes / 1024)
            } else {
                String::new()
            },
            match (&self.counters, &self.merkle) {
                (true, _) => ", counters".to_owned(),
                (false, Some(m)) =>
                    format!(", BMT(arity={}, cache={}B)", m.arity, m.node_cache_bytes),
                (false, None) => String::new(),
            },
        )
    }

    fn validate(&self) -> Result<(), ShefError> {
        if self.aes_engines == 0 || self.mac_engines == 0 {
            return Err(ShefError::InvalidConfig(
                "engine set needs at least one AES and one MAC engine".into(),
            ));
        }
        if self.chunk_size == 0 {
            return Err(ShefError::InvalidConfig(
                "chunk size must be positive".into(),
            ));
        }
        if self.buffer_bytes > 0 && self.buffer_bytes < self.chunk_size {
            return Err(ShefError::InvalidConfig(
                "buffer must hold at least one chunk".into(),
            ));
        }
        if let Some(merkle) = &self.merkle {
            merkle.validate()?;
            if self.counters {
                return Err(ShefError::InvalidConfig(
                    "on-chip counters and a Merkle tree are alternative replay \
                     defences; enable at most one"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    fn serialize(&self, w: &mut Writer) {
        w.put_u32(self.aes_engines as u32);
        w.put_u32(self.sbox.factor());
        w.put_u8(match self.key_size {
            AesKeySize::Aes128 => 0,
            AesKeySize::Aes256 => 1,
        });
        w.put_u8(match self.mac {
            MacAlgorithm::HmacSha256 => 0,
            MacAlgorithm::PmacAes => 1,
            MacAlgorithm::AesGcm => 2,
        });
        w.put_u32(self.mac_engines as u32);
        w.put_u64(self.chunk_size as u64);
        w.put_u64(self.buffer_bytes as u64);
        w.put_bool(self.counters);
        w.put_bool(self.zero_fill_writes);
        w.put_bool(self.merkle.is_some());
        if let Some(merkle) = &self.merkle {
            merkle.serialize(w);
        }
    }

    fn deserialize(r: &mut Reader<'_>) -> Result<Self, ShefError> {
        let aes_engines = r.get_u32()? as usize;
        let sbox = match r.get_u32()? {
            1 => SBoxParallelism::X1,
            2 => SBoxParallelism::X2,
            4 => SBoxParallelism::X4,
            8 => SBoxParallelism::X8,
            16 => SBoxParallelism::X16,
            f => return Err(ShefError::Malformed(format!("bad sbox factor {f}"))),
        };
        let key_size = match r.get_u8()? {
            0 => AesKeySize::Aes128,
            1 => AesKeySize::Aes256,
            v => return Err(ShefError::Malformed(format!("bad key size tag {v}"))),
        };
        let mac = match r.get_u8()? {
            0 => MacAlgorithm::HmacSha256,
            1 => MacAlgorithm::PmacAes,
            2 => MacAlgorithm::AesGcm,
            v => return Err(ShefError::Malformed(format!("bad mac tag {v}"))),
        };
        let mac_engines = r.get_u32()? as usize;
        let chunk_size = r.get_u64()? as usize;
        let buffer_bytes = r.get_u64()? as usize;
        let counters = r.get_bool()?;
        let zero_fill_writes = r.get_bool()?;
        let merkle = if r.get_bool()? {
            Some(MerkleConfig::deserialize(r)?)
        } else {
            None
        };
        Ok(EngineSetConfig {
            aes_engines,
            sbox,
            key_size,
            mac,
            mac_engines,
            chunk_size,
            buffer_bytes,
            counters,
            zero_fill_writes,
            merkle,
        })
    }
}

/// A named memory region protected by one engine set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionConfig {
    /// Region name; also the key-derivation label.
    pub name: String,
    /// Address range in device memory.
    pub range: MemRange,
    /// The engine set securing this region.
    pub engine_set: EngineSetConfig,
}

/// Register-interface options (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterInterfaceConfig {
    /// Number of 64-bit registers in the Shield-provided register file.
    pub num_registers: usize,
    /// Hide register addresses by funnelling all traffic through a
    /// single common register with in-band addressing.
    pub hide_addresses: bool,
}

impl Default for RegisterInterfaceConfig {
    fn default() -> Self {
        RegisterInterfaceConfig {
            num_registers: 32,
            hide_addresses: false,
        }
    }
}

/// Base of the tag arena in device memory. Region tags live above the
/// data regions; 48 GB leaves the paper's workloads unconstrained.
pub const TAG_ARENA_BASE: u64 = 48 << 30;
/// Tag arena bytes reserved per region (16 M chunks × 16 B).
pub const TAG_ARENA_STRIDE: u64 = 256 << 20;
/// Base of the Merkle-tree arena: DRAM backing for regions that use the
/// Bonsai-Merkle-Tree replay defence instead of on-chip counters.
pub const MERKLE_ARENA_BASE: u64 = 56 << 30;
/// Merkle arena bytes reserved per region.
pub const MERKLE_ARENA_STRIDE: u64 = 256 << 20;

/// The complete Shield configuration compiled into a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShieldConfig {
    /// Partition map: disjoint regions, each with its engine set.
    pub regions: Vec<RegionConfig>,
    /// Register interface options.
    pub register_interface: RegisterInterfaceConfig,
}

impl ShieldConfig {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> ShieldConfigBuilder {
        ShieldConfigBuilder::default()
    }

    /// Validates invariants: non-overlapping regions, sane engine sets,
    /// chunk counts within the tag arena.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] describing the violation.
    pub fn validate(&self) -> Result<(), ShefError> {
        // Every later check computes `end()`, so reject wrapping ranges
        // before any of them runs.
        if let Some(region) = self
            .regions
            .iter()
            .find(|r| r.range.start.checked_add(r.range.len).is_none())
        {
            return Err(ShefError::InvalidConfig(format!(
                "region '{}' ends past the address space",
                region.name
            )));
        }
        for (i, region) in self.regions.iter().enumerate() {
            region.engine_set.validate()?;
            if region.range.len == 0 {
                return Err(ShefError::InvalidConfig(format!(
                    "region '{}' is empty",
                    region.name
                )));
            }
            if region.range.end() > TAG_ARENA_BASE {
                return Err(ShefError::InvalidConfig(format!(
                    "region '{}' overlaps the tag arena",
                    region.name
                )));
            }
            let chunks = region
                .range
                .len
                .div_ceil(region.engine_set.chunk_size as u64);
            if chunks * 16 > TAG_ARENA_STRIDE {
                return Err(ShefError::InvalidConfig(format!(
                    "region '{}' has too many chunks for its tag arena slot",
                    region.name
                )));
            }
            for other in &self.regions[i + 1..] {
                if region.range.overlaps(&other.range) {
                    return Err(ShefError::InvalidConfig(format!(
                        "regions '{}' and '{}' overlap",
                        region.name, other.name
                    )));
                }
                if region.name == other.name {
                    return Err(ShefError::InvalidConfig(format!(
                        "duplicate region name '{}'",
                        region.name
                    )));
                }
            }
        }
        if self.register_interface.num_registers == 0 {
            return Err(ShefError::InvalidConfig(
                "register file cannot be empty".into(),
            ));
        }
        Ok(())
    }

    /// Index of the region containing `addr`, if any.
    #[must_use]
    pub fn region_for(&self, addr: u64) -> Option<usize> {
        self.regions.iter().position(|r| r.range.contains(addr))
    }

    /// Device address where region `index` stores its MAC tags.
    #[must_use]
    pub fn tag_base(&self, index: usize) -> u64 {
        TAG_ARENA_BASE + index as u64 * TAG_ARENA_STRIDE
    }

    /// Device address where region `index` stores its Merkle-tree nodes
    /// (used only when the region's engine set enables `merkle`).
    #[must_use]
    pub fn merkle_base(&self, index: usize) -> u64 {
        MERKLE_ARENA_BASE + index as u64 * MERKLE_ARENA_STRIDE
    }

    /// Serializes (stable format — hashed inside bitstreams).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.regions.len() as u32);
        for region in &self.regions {
            w.put_str(&region.name);
            w.put_u64(region.range.start);
            w.put_u64(region.range.len);
            region.engine_set.serialize(&mut w);
        }
        w.put_u32(self.register_interface.num_registers as u32);
        w.put_bool(self.register_interface.hide_addresses);
        w.finish()
    }

    /// Parses the `to_bytes` format.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Malformed`] on corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ShefError> {
        let mut r = Reader::new(bytes);
        let n = r.get_u32()? as usize;
        // A serialized region is at least 57 bytes (name length prefix,
        // two u64 range fields, engine-set encoding), so a count the
        // remaining input cannot possibly hold is malformed — reject it
        // instead of pre-allocating gigabytes from a corrupt prefix.
        if n > bytes.len() / 32 {
            return Err(ShefError::Malformed(format!(
                "region count {n} exceeds input"
            )));
        }
        let mut regions = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let start = r.get_u64()?;
            let len = r.get_u64()?;
            let engine_set = EngineSetConfig::deserialize(&mut r)?;
            regions.push(RegionConfig {
                name,
                range: MemRange::new(start, len),
                engine_set,
            });
        }
        let register_interface = RegisterInterfaceConfig {
            num_registers: r.get_u32()? as usize,
            hide_addresses: r.get_bool()?,
        };
        r.finish()?;
        Ok(ShieldConfig {
            regions,
            register_interface,
        })
    }
}

/// Builder for [`ShieldConfig`].
#[derive(Debug, Default)]
pub struct ShieldConfigBuilder {
    regions: Vec<RegionConfig>,
    register_interface: RegisterInterfaceConfig,
}

impl ShieldConfigBuilder {
    /// Adds a protected memory region.
    pub fn region(mut self, name: &str, range: MemRange, engine_set: EngineSetConfig) -> Self {
        self.regions.push(RegionConfig {
            name: name.to_owned(),
            range,
            engine_set,
        });
        self
    }

    /// Sets register-interface options.
    pub fn register_interface(mut self, cfg: RegisterInterfaceConfig) -> Self {
        self.register_interface = cfg;
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] if invariants are violated.
    pub fn build(self) -> Result<ShieldConfig, ShefError> {
        let cfg = ShieldConfig {
            regions: self.regions,
            register_interface: self.register_interface,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(chunk: usize) -> EngineSetConfig {
        EngineSetConfig {
            chunk_size: chunk,
            ..EngineSetConfig::default()
        }
    }

    #[test]
    fn builder_and_lookup() {
        let cfg = ShieldConfig::builder()
            .region("in", MemRange::new(0, 4096), es(512))
            .region("out", MemRange::new(8192, 4096), es(512))
            .build()
            .unwrap();
        assert_eq!(cfg.region_for(0), Some(0));
        assert_eq!(cfg.region_for(4095), Some(0));
        assert_eq!(cfg.region_for(4096), None);
        assert_eq!(cfg.region_for(8192), Some(1));
        assert_ne!(cfg.tag_base(0), cfg.tag_base(1));
    }

    #[test]
    fn overlapping_regions_rejected() {
        let err = ShieldConfig::builder()
            .region("a", MemRange::new(0, 4096), es(512))
            .region("b", MemRange::new(2048, 4096), es(512))
            .build()
            .unwrap_err();
        assert!(matches!(err, ShefError::InvalidConfig(_)));
    }

    #[test]
    fn wrapping_region_rejected() {
        let err = ShieldConfig::builder()
            .region("r", MemRange::new(u64::MAX, 2), es(512))
            .build()
            .unwrap_err();
        assert!(matches!(err, ShefError::InvalidConfig(_)));
        // The same region through the wire format.
        let mut cfg = ShieldConfig::builder()
            .region("r", MemRange::new(0, 4096), es(512))
            .build()
            .unwrap();
        cfg.regions[0].range = MemRange::new(u64::MAX, 2);
        let parsed = ShieldConfig::from_bytes(&cfg.to_bytes()).unwrap();
        assert!(matches!(
            parsed.validate(),
            Err(ShefError::InvalidConfig(_))
        ));
        assert!(!MemRange::new(0, 4096).contains_span(100, usize::MAX));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = ShieldConfig::builder()
            .region("a", MemRange::new(0, 4096), es(512))
            .region("a", MemRange::new(8192, 4096), es(512))
            .build()
            .unwrap_err();
        assert!(matches!(err, ShefError::InvalidConfig(_)));
    }

    #[test]
    fn tiny_buffer_rejected() {
        let mut e = es(512);
        e.buffer_bytes = 128;
        let err = ShieldConfig::builder()
            .region("a", MemRange::new(0, 4096), e)
            .build()
            .unwrap_err();
        assert!(matches!(err, ShefError::InvalidConfig(_)));
    }

    #[test]
    fn zero_engines_rejected() {
        let mut e = es(512);
        e.aes_engines = 0;
        assert!(ShieldConfig::builder()
            .region("a", MemRange::new(0, 4096), e)
            .build()
            .is_err());
    }

    #[test]
    fn serialization_round_trip() {
        let mut e = es(4096);
        e.aes_engines = 4;
        e.mac = MacAlgorithm::PmacAes;
        e.mac_engines = 4;
        e.buffer_bytes = 128 * 1024;
        e.counters = true;
        e.key_size = AesKeySize::Aes256;
        e.sbox = SBoxParallelism::X4;
        let cfg = ShieldConfig::builder()
            .region("weights", MemRange::new(0, 1 << 20), e)
            .register_interface(RegisterInterfaceConfig {
                num_registers: 8,
                hide_addresses: true,
            })
            .build()
            .unwrap();
        let parsed = ShieldConfig::from_bytes(&cfg.to_bytes()).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn mem_range_relations() {
        let r = MemRange::new(100, 50);
        assert!(r.contains(100));
        assert!(r.contains(149));
        assert!(!r.contains(150));
        assert!(r.contains_span(100, 50));
        assert!(!r.contains_span(100, 51));
        assert!(r.overlaps(&MemRange::new(149, 10)));
        assert!(!r.overlaps(&MemRange::new(150, 10)));
    }

    #[test]
    fn describe_is_readable() {
        let d = es(512).describe();
        assert!(d.contains("AES-128"));
        assert!(d.contains("HMAC"));
        assert!(d.contains("512"));
    }

    #[test]
    fn counters_and_merkle_are_mutually_exclusive() {
        let mut e = es(512);
        e.counters = true;
        e.merkle = Some(crate::shield::merkle::MerkleConfig::default());
        let err = ShieldConfig::builder()
            .region("a", MemRange::new(0, 4096), e)
            .build()
            .unwrap_err();
        assert!(matches!(err, ShefError::InvalidConfig(_)));
    }

    #[test]
    fn merkle_config_serializes_in_shield_config() {
        let mut e = es(64);
        e.merkle = Some(crate::shield::merkle::MerkleConfig {
            arity: 16,
            node_cache_bytes: 8192,
        });
        let cfg = ShieldConfig::builder()
            .region("fmap", MemRange::new(0, 1 << 20), e)
            .build()
            .unwrap();
        let parsed = ShieldConfig::from_bytes(&cfg.to_bytes()).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn corrupt_region_count_is_rejected_without_allocating() {
        // Regression: a corrupt 4-byte count prefix must be rejected up
        // front, not fed to Vec::with_capacity (a u32::MAX count used to
        // request a multi-gigabyte allocation and abort the process).
        let cfg = ShieldConfig::builder()
            .region("r", MemRange::new(0, 4096), es(512))
            .build()
            .unwrap();
        let mut bytes = cfg.to_bytes();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ShieldConfig::from_bytes(&bytes),
            Err(ShefError::Malformed(_))
        ));
        // A count that is large but still conceivably within the input
        // length bound must fail cleanly in the parse loop, not panic.
        let in_bound_count = bytes.len() as u32 / 32;
        bytes[..4].copy_from_slice(&in_bound_count.to_le_bytes());
        assert!(ShieldConfig::from_bytes(&bytes).is_err());
    }

    #[test]
    fn merkle_describe_mentions_tree() {
        let mut e = es(64);
        e.merkle = Some(crate::shield::merkle::MerkleConfig::default());
        assert!(e.describe().contains("BMT"));
    }

    #[test]
    fn arena_bases_do_not_collide() {
        let cfg = ShieldConfig::builder()
            .region("a", MemRange::new(0, 4096), es(512))
            .region("b", MemRange::new(8192, 4096), es(512))
            .build()
            .unwrap();
        assert_ne!(cfg.merkle_base(0), cfg.merkle_base(1));
        assert!(cfg.merkle_base(0) >= TAG_ARENA_BASE + 2 * TAG_ARENA_STRIDE);
    }
}
