//! Bonsai Merkle Tree freshness — the CPU-TEE baseline of §5.2.2.
//!
//! Secure processors protect against replay with Merkle trees over
//! counters (Bonsai Merkle Trees, Rogers et al. \[77\]): counters live in
//! DRAM, a hash tree authenticates them, and only the root is kept
//! on-chip. The paper argues this is a poor fit for FPGAs — "Merkle
//! Trees are expensive for FPGA designs that need to access every tree
//! node from DRAM, unlike CPUs that can benefit from multiple tiers of
//! caches" — and proposes on-chip counters instead ("only one extra
//! DRAM access is needed, eliminating excessive off-chip accesses
//! associated with Merkle Trees").
//!
//! This module implements that baseline faithfully so the claim can be
//! measured (see the `integrity_ablation` bench): a [`MerkleTree`] keeps
//! per-chunk write counters in device DRAM, organized as an arity-`A`
//! hash tree whose 16-byte root digest lives on-chip. Every counter read
//! verifies a path of tree nodes against the root; every counter bump
//! rewrites the path. An optional on-chip *verified-node cache* models
//! what a CPU's cache hierarchy provides for free — with it, path
//! verification stops at the first cached (already-trusted) ancestor.
//!
//! A region selects this scheme with its engine set's one replay-defence
//! knob, [`Freshness::Merkle`]`(MerkleConfig { .. })`, in place of the
//! on-chip [`Freshness::Counters`], so the two defences can be swapped
//! per region like any other Shield parameter.
//!
//! [`Freshness::Merkle`]: super::config::Freshness::Merkle
//! [`Freshness::Counters`]: super::config::Freshness::Counters

use std::collections::HashMap;
use std::collections::VecDeque;

use shef_crypto::hmac::hmac_sha256_multi;
use shef_fpga::clock::{CostLedger, Cycles};
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

use super::engine::AccessMode;
use super::timing::{
    merkle_block_cost, PORT_READ_LANE, PORT_WRITE_LANE, SHELL_PORT_BYTES_PER_CYCLE,
};
use crate::wire::{Reader, Writer};
use crate::ShefError;

/// Bytes of each node digest (matches the chunk-tag width).
pub const NODE_DIGEST_LEN: usize = 16;
/// Bytes of each counter (64-bit write epochs, as in the on-chip scheme).
pub const COUNTER_LEN: usize = 8;
/// Domain-separation label for node digests.
const NODE_LABEL: &[u8] = b"shef.bmt.node.v1";

/// Compile-time parameters of a Bonsai Merkle Tree engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MerkleConfig {
    /// Tree arity: counters per leaf block and children per internal
    /// node. Higher arity means shallower trees (fewer DRAM accesses
    /// per path) but larger nodes (more bytes and hash work per access).
    pub arity: usize,
    /// On-chip verified-node cache capacity in bytes (0 disables the
    /// cache — the paper's "every tree node from DRAM" case).
    pub node_cache_bytes: usize,
}

impl Default for MerkleConfig {
    fn default() -> Self {
        MerkleConfig {
            arity: 8,
            node_cache_bytes: 0,
        }
    }
}

impl MerkleConfig {
    /// Validates arity bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] for an arity outside `2..=64`.
    pub fn validate(&self) -> Result<(), ShefError> {
        if !(2..=64).contains(&self.arity) {
            return Err(ShefError::InvalidConfig(format!(
                "merkle arity {} outside 2..=64",
                self.arity
            )));
        }
        Ok(())
    }

    /// Bytes of one internal node (`arity` child digests).
    #[must_use]
    pub fn node_bytes(&self) -> usize {
        self.arity * NODE_DIGEST_LEN
    }

    /// Bytes of one leaf block (`arity` counters).
    #[must_use]
    pub fn leaf_bytes(&self) -> usize {
        self.arity * COUNTER_LEN
    }

    pub(crate) fn serialize(&self, w: &mut Writer) {
        w.put_u32(self.arity as u32);
        w.put_u64(self.node_cache_bytes as u64);
    }

    pub(crate) fn deserialize(r: &mut Reader<'_>) -> Result<Self, ShefError> {
        Ok(MerkleConfig {
            arity: r.get_u32()? as usize,
            node_cache_bytes: r.get_u64()? as usize,
        })
    }
}

/// Per-level geometry: where a level's blocks live and how many there are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Level {
    /// DRAM offset of the level's first block, relative to the tree base.
    offset: u64,
    /// Number of blocks in this level.
    blocks: u64,
    /// Bytes per block at this level.
    block_bytes: usize,
}

/// Runtime statistics of one tree (exposed to tests and benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MerkleStats {
    /// Tree-node blocks fetched from DRAM.
    pub node_reads: u64,
    /// Tree-node blocks written back to DRAM.
    pub node_writes: u64,
    /// Path steps served by the verified-node cache.
    pub cache_hits: u64,
    /// Digest mismatches detected (tamper/replay attempts).
    pub verify_failures: u64,
}

/// A Bonsai Merkle Tree over one region's chunk counters.
///
/// The tree is *write-through*: every counter bump updates DRAM and the
/// on-chip root before returning, so a crash or power cut never leaves
/// the root out of sync with device memory.
pub struct MerkleTree {
    cfg: MerkleConfig,
    key: [u8; 32],
    base: u64,
    num_counters: u64,
    /// Level 0 = leaf blocks of counters; last level = single top block.
    levels: Vec<Level>,
    /// On-chip root digest over the top block.
    root: [u8; NODE_DIGEST_LEN],
    /// Verified-node cache: `(level, block index)` → block bytes.
    cache: HashMap<(u8, u64), Vec<u8>>,
    lru: VecDeque<(u8, u64)>,
    cache_capacity_blocks: usize,
    initialized: bool,
    lane: String,
    stats: MerkleStats,
}

impl core::fmt::Debug for MerkleTree {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MerkleTree")
            .field("counters", &self.num_counters)
            .field("depth", &self.levels.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MerkleTree {
    /// Lays out a tree for `num_counters` chunk counters at DRAM address
    /// `base`, keyed by the region's tree key.
    ///
    /// # Panics
    ///
    /// Panics if `num_counters` is zero or `cfg` fails validation; the
    /// Shield validates configurations before instantiating engines.
    #[must_use]
    pub fn new(cfg: MerkleConfig, key: [u8; 32], base: u64, num_counters: u64, lane: &str) -> Self {
        assert!(num_counters > 0, "merkle tree needs at least one counter");
        cfg.validate()
            .expect("config validated before engine construction");
        let mut levels = Vec::new();
        let arity = cfg.arity as u64;
        let mut offset = 0u64;
        let mut blocks = num_counters.div_ceil(arity);
        levels.push(Level {
            offset,
            blocks,
            block_bytes: cfg.leaf_bytes(),
        });
        offset += blocks * cfg.leaf_bytes() as u64;
        while blocks > 1 {
            blocks = blocks.div_ceil(arity);
            levels.push(Level {
                offset,
                blocks,
                block_bytes: cfg.node_bytes(),
            });
            offset += blocks * cfg.node_bytes() as u64;
        }
        let cache_capacity_blocks = if cfg.node_cache_bytes == 0 {
            0
        } else {
            (cfg.node_cache_bytes / cfg.node_bytes()).max(1)
        };
        MerkleTree {
            cfg,
            key,
            base,
            num_counters,
            levels,
            root: [0u8; NODE_DIGEST_LEN],
            cache: HashMap::new(),
            lru: VecDeque::new(),
            cache_capacity_blocks,
            initialized: false,
            lane: lane.to_owned(),
            stats: MerkleStats::default(),
        }
    }

    /// Tree depth in levels (1 = a single leaf block under the root).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total DRAM footprint of the tree in bytes.
    #[must_use]
    pub fn dram_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.blocks * l.block_bytes as u64)
            .sum()
    }

    /// Runtime statistics.
    #[must_use]
    pub fn stats(&self) -> MerkleStats {
        self.stats
    }

    /// Drops all cached (verified) nodes — models a context switch or
    /// power event; used by tests to force re-verification from DRAM.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.lru.clear();
    }

    fn digest(&self, level: u8, index: u64, block: &[u8]) -> [u8; NODE_DIGEST_LEN] {
        let full = hmac_sha256_multi(
            &self.key,
            &[NODE_LABEL, &[level], &index.to_be_bytes(), block],
        );
        full[..NODE_DIGEST_LEN].try_into().expect("truncate to 16")
    }

    fn block_addr(&self, level: usize, index: u64) -> u64 {
        let l = &self.levels[level];
        self.base + l.offset + index * l.block_bytes as u64
    }

    fn top_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Lazily writes the all-zero tree on first use. Counters start at
    /// zero, matching the Data Owner's epoch-0 provisioning; the zero
    /// tree makes that state authentic. Provision-time work is not
    /// charged to the ledger.
    fn ensure_init(&mut self, shell: &mut Shell, dram: &mut Dram) -> Result<(), ShefError> {
        if self.initialized {
            return Ok(());
        }
        let mut child_digests: Vec<[u8; NODE_DIGEST_LEN]> = Vec::new();
        for level in 0..self.levels.len() {
            let info = self.levels[level];
            let mut digests = Vec::with_capacity(info.blocks as usize);
            for index in 0..info.blocks {
                let mut block = vec![0u8; info.block_bytes];
                if level > 0 {
                    // Fill child-digest entries computed for the level below.
                    let first_child = index * self.cfg.arity as u64;
                    for slot in 0..self.cfg.arity as u64 {
                        let child = first_child + slot;
                        if let Some(d) = child_digests.get(child as usize) {
                            let at = slot as usize * NODE_DIGEST_LEN;
                            block[at..at + NODE_DIGEST_LEN].copy_from_slice(d);
                        }
                    }
                }
                // The Shell may rewrite what it stores; the digest is over
                // the block the tree meant to write.
                shell.mem_write(dram, self.block_addr(level, index), &mut block.clone())?;
                digests.push(self.digest(level as u8, index, &block));
            }
            child_digests = digests;
        }
        self.root = child_digests[0];
        self.initialized = true;
        Ok(())
    }

    fn charge_read(&self, ledger: &mut CostLedger, block_bytes: usize, mode: AccessMode) {
        ledger.add_busy(
            PORT_READ_LANE,
            Cycles((block_bytes as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        let cost = merkle_block_cost(block_bytes);
        match mode {
            AccessMode::Streaming => ledger.add_busy(&self.lane, cost.lane),
            AccessMode::Blocking => ledger.add_serial(cost.latency),
        }
    }

    fn charge_write(&self, ledger: &mut CostLedger, block_bytes: usize, mode: AccessMode) {
        ledger.add_busy(
            PORT_WRITE_LANE,
            Cycles((block_bytes as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        let cost = merkle_block_cost(block_bytes);
        match mode {
            AccessMode::Streaming => ledger.add_busy(&self.lane, cost.lane),
            AccessMode::Blocking => ledger.add_serial(cost.latency),
        }
    }

    fn cache_insert(&mut self, level: u8, index: u64, block: Vec<u8>) {
        if self.cache_capacity_blocks == 0 {
            return;
        }
        let key = (level, index);
        if self.cache.insert(key, block).is_none() {
            self.lru.push_back(key);
        } else if let Some(pos) = self.lru.iter().position(|&k| k == key) {
            self.lru.remove(pos);
            self.lru.push_back(key);
        }
        while self.cache.len() > self.cache_capacity_blocks {
            if let Some(victim) = self.lru.pop_front() {
                self.cache.remove(&victim);
            }
        }
    }

    /// Fetches and authenticates the block at `(level, index)`. A block
    /// is trusted if it is cached, or if its digest matches the entry in
    /// its trusted parent (recursively, up to the on-chip root).
    fn load_verified(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        level: usize,
        index: u64,
        mode: AccessMode,
    ) -> Result<Vec<u8>, ShefError> {
        if let Some(block) = self.cache.get(&(level as u8, index)) {
            self.stats.cache_hits += 1;
            // On-chip SRAM read: one beat.
            ledger.add_busy(&self.lane, Cycles(1));
            return Ok(block.clone());
        }
        let info = self.levels[level];
        let mut block = vec![0u8; info.block_bytes];
        shell.mem_read(dram, self.block_addr(level, index), &mut block)?;
        self.stats.node_reads += 1;
        self.charge_read(ledger, info.block_bytes, mode);
        let digest = self.digest(level as u8, index, &block);
        let expected: [u8; NODE_DIGEST_LEN] = if level == self.top_level() {
            self.root
        } else {
            let parent = self.load_verified(
                shell,
                dram,
                ledger,
                level + 1,
                index / self.cfg.arity as u64,
                mode,
            )?;
            let slot = (index % self.cfg.arity as u64) as usize * NODE_DIGEST_LEN;
            parent[slot..slot + NODE_DIGEST_LEN]
                .try_into()
                .expect("digest slot")
        };
        if !shef_crypto::ct::eq(&digest, &expected) {
            self.stats.verify_failures += 1;
            return Err(ShefError::IntegrityViolation(format!(
                "merkle node (level {level}, block {index}) failed verification"
            )));
        }
        self.cache_insert(level as u8, index, block.clone());
        Ok(block)
    }

    /// Reads the authenticated counter for chunk `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::IntegrityViolation`] if any node on the path
    /// fails verification, and propagates DRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the tree (engine-set bounds enforce
    /// this).
    pub fn counter(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        idx: u32,
        mode: AccessMode,
    ) -> Result<u64, ShefError> {
        assert!(
            (idx as u64) < self.num_counters,
            "counter index out of range"
        );
        self.ensure_init(shell, dram)?;
        let arity = self.cfg.arity as u64;
        let leaf = self.load_verified(shell, dram, ledger, 0, idx as u64 / arity, mode)?;
        let at = (idx as u64 % arity) as usize * COUNTER_LEN;
        Ok(u64::from_le_bytes(
            leaf[at..at + COUNTER_LEN].try_into().expect("counter slot"),
        ))
    }

    /// Increments the counter for chunk `idx`, rewriting the leaf and
    /// every ancestor node, and returns the new value.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::IntegrityViolation`] if the pre-update path
    /// fails verification, and propagates DRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the tree.
    pub fn bump(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        idx: u32,
        mode: AccessMode,
    ) -> Result<u64, ShefError> {
        assert!(
            (idx as u64) < self.num_counters,
            "counter index out of range"
        );
        self.ensure_init(shell, dram)?;
        let arity = self.cfg.arity as u64;
        // Verify-then-update: the current path must be authentic before
        // we derive the new state from it.
        let mut block = self.load_verified(shell, dram, ledger, 0, idx as u64 / arity, mode)?;
        let at = (idx as u64 % arity) as usize * COUNTER_LEN;
        let new_value = u64::from_le_bytes(
            block[at..at + COUNTER_LEN]
                .try_into()
                .expect("counter slot"),
        ) + 1;
        block[at..at + COUNTER_LEN].copy_from_slice(&new_value.to_le_bytes());

        let mut index = idx as u64 / arity;
        let mut level = 0usize;
        loop {
            let info = self.levels[level];
            // As at initialisation: digest and cache what was meant.
            shell.mem_write(dram, self.block_addr(level, index), &mut block.clone())?;
            self.stats.node_writes += 1;
            self.charge_write(ledger, info.block_bytes, mode);
            let digest = self.digest(level as u8, index, &block);
            self.cache_insert(level as u8, index, block.clone());
            if level == self.top_level() {
                self.root = digest;
                break;
            }
            // Splice the fresh digest into the (verified) parent.
            let parent_index = index / arity;
            let mut parent =
                self.load_verified(shell, dram, ledger, level + 1, parent_index, mode)?;
            let slot = (index % arity) as usize * NODE_DIGEST_LEN;
            parent[slot..slot + NODE_DIGEST_LEN].copy_from_slice(&digest);
            block = parent;
            index = parent_index;
            level += 1;
        }
        Ok(new_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(num_counters: u64, cfg: MerkleConfig) -> (MerkleTree, Shell, Dram, CostLedger) {
        let tree = MerkleTree::new(cfg, [0x42u8; 32], 0x10_0000, num_counters, "test.merkle");
        (tree, Shell::new(), Dram::new(1 << 24), CostLedger::new())
    }

    #[test]
    fn counters_start_at_zero() {
        let (mut t, mut sh, mut dram, mut led) = setup(100, MerkleConfig::default());
        for idx in [0u32, 7, 50, 99] {
            assert_eq!(
                t.counter(&mut sh, &mut dram, &mut led, idx, AccessMode::Streaming)
                    .unwrap(),
                0
            );
        }
    }

    #[test]
    fn bump_round_trip() {
        let (mut t, mut sh, mut dram, mut led) = setup(64, MerkleConfig::default());
        assert_eq!(
            t.bump(&mut sh, &mut dram, &mut led, 3, AccessMode::Streaming)
                .unwrap(),
            1
        );
        assert_eq!(
            t.bump(&mut sh, &mut dram, &mut led, 3, AccessMode::Streaming)
                .unwrap(),
            2
        );
        assert_eq!(
            t.counter(&mut sh, &mut dram, &mut led, 3, AccessMode::Streaming)
                .unwrap(),
            2
        );
        // Neighbours are untouched.
        assert_eq!(
            t.counter(&mut sh, &mut dram, &mut led, 2, AccessMode::Streaming)
                .unwrap(),
            0
        );
        assert_eq!(
            t.counter(&mut sh, &mut dram, &mut led, 4, AccessMode::Streaming)
                .unwrap(),
            0
        );
    }

    #[test]
    fn depth_scales_with_arity_and_size() {
        // 8 counters, arity 8 → one leaf block directly under the root.
        let t = MerkleTree::new(MerkleConfig::default(), [0; 32], 0, 8, "l");
        assert_eq!(t.depth(), 1);
        // 9 counters need 2 leaf blocks → one internal level.
        let t = MerkleTree::new(MerkleConfig::default(), [0; 32], 0, 9, "l");
        assert_eq!(t.depth(), 2);
        // 8^3 counters, arity 8 → 3 levels.
        let t = MerkleTree::new(MerkleConfig::default(), [0; 32], 0, 512, "l");
        assert_eq!(t.depth(), 3);
        // Same counters at arity 64 → shallower.
        let cfg = MerkleConfig {
            arity: 64,
            node_cache_bytes: 0,
        };
        let t = MerkleTree::new(cfg, [0; 32], 0, 512, "l");
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn dram_footprint_matches_layout() {
        // 64 counters, arity 8: 8 leaf blocks × 64 B + 1 top block × 128 B.
        let t = MerkleTree::new(MerkleConfig::default(), [0; 32], 0, 64, "l");
        assert_eq!(t.dram_bytes(), 8 * 64 + 128);
    }

    #[test]
    fn counter_tamper_detected() {
        let (mut t, mut sh, mut dram, mut led) = setup(512, MerkleConfig::default());
        t.bump(&mut sh, &mut dram, &mut led, 10, AccessMode::Streaming)
            .unwrap();
        // Adversary edits the raw counter in DRAM.
        let addr = t.block_addr(0, 10 / 8) + (10 % 8) * COUNTER_LEN as u64;
        dram.tamper_write(addr, &999u64.to_le_bytes());
        let err = t
            .counter(&mut sh, &mut dram, &mut led, 10, AccessMode::Streaming)
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
        assert_eq!(t.stats().verify_failures, 1);
    }

    #[test]
    fn internal_node_tamper_detected() {
        let (mut t, mut sh, mut dram, mut led) = setup(512, MerkleConfig::default());
        t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        // Flip one byte of a level-1 node.
        let addr = t.block_addr(1, 0);
        let mut byte = dram.tamper_read(addr, 1);
        byte[0] ^= 0x01;
        dram.tamper_write(addr, &byte);
        let err = t
            .counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn replaying_whole_path_detected() {
        // Snapshot the entire tree state, bump, restore the snapshot:
        // the on-chip root no longer matches — replay is caught even
        // though every node is internally consistent.
        let (mut t, mut sh, mut dram, mut led) = setup(64, MerkleConfig::default());
        t.counter(&mut sh, &mut dram, &mut led, 5, AccessMode::Streaming)
            .unwrap();
        let snapshot = dram.tamper_read(0x10_0000, t.dram_bytes() as usize);
        t.bump(&mut sh, &mut dram, &mut led, 5, AccessMode::Streaming)
            .unwrap();
        dram.tamper_write(0x10_0000, &snapshot);
        let err = t
            .counter(&mut sh, &mut dram, &mut led, 5, AccessMode::Streaming)
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn node_splice_detected() {
        // Copying leaf block 0 over leaf block 1 must fail: digests bind
        // the block index.
        let (mut t, mut sh, mut dram, mut led) = setup(64, MerkleConfig::default());
        t.bump(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        let b0 = dram.tamper_read(t.block_addr(0, 0), 64);
        dram.tamper_write(t.block_addr(0, 1), &b0);
        let err = t
            .counter(&mut sh, &mut dram, &mut led, 8, AccessMode::Streaming)
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn cache_reduces_node_reads() {
        let cached = MerkleConfig {
            arity: 8,
            node_cache_bytes: 64 * 1024,
        };
        let (mut t, mut sh, mut dram, mut led) = setup(512, cached);
        t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        let after_first = t.stats().node_reads;
        // Second read of the same counter: full path cached.
        t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        assert_eq!(t.stats().node_reads, after_first);
        assert!(t.stats().cache_hits >= 1);
        // A sibling counter in the same leaf block also hits.
        t.counter(&mut sh, &mut dram, &mut led, 1, AccessMode::Streaming)
            .unwrap();
        assert_eq!(t.stats().node_reads, after_first);
    }

    #[test]
    fn uncached_tree_reads_full_path_every_time() {
        let (mut t, mut sh, mut dram, mut led) = setup(512, MerkleConfig::default());
        t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        let d = t.depth() as u64;
        assert_eq!(t.stats().node_reads, d);
        t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        assert_eq!(t.stats().node_reads, 2 * d, "no cache → repeat full path");
    }

    #[test]
    fn cache_eviction_bounds_capacity() {
        // Cache sized for exactly one node block.
        let cfg = MerkleConfig {
            arity: 8,
            node_cache_bytes: 128,
        };
        let (mut t, mut sh, mut dram, mut led) = setup(512, cfg);
        for idx in 0..64u32 {
            t.counter(&mut sh, &mut dram, &mut led, idx, AccessMode::Streaming)
                .unwrap();
        }
        assert!(t.cache.len() <= t.cache_capacity_blocks);
    }

    #[test]
    fn clear_cache_forces_reverification() {
        let cfg = MerkleConfig {
            arity: 8,
            node_cache_bytes: 64 * 1024,
        };
        let (mut t, mut sh, mut dram, mut led) = setup(64, cfg);
        t.bump(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        // With the path cached, DRAM tampering is invisible (reads are
        // served on-chip) …
        let snapshot = dram.tamper_read(0x10_0000, t.dram_bytes() as usize);
        t.bump(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        dram.tamper_write(0x10_0000, &snapshot);
        assert_eq!(
            t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
                .unwrap(),
            2
        );
        // … but any DRAM-backed re-read catches it.
        t.clear_cache();
        assert!(t
            .counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .is_err());
    }

    #[test]
    fn bump_charges_more_than_read() {
        let (mut t, mut sh, mut dram, mut led) = setup(512, MerkleConfig::default());
        t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Streaming)
            .unwrap();
        let read_lane = led.lane("test.merkle");
        let mut led2 = CostLedger::new();
        t.bump(&mut sh, &mut dram, &mut led2, 0, AccessMode::Streaming)
            .unwrap();
        assert!(
            led2.lane("test.merkle") > read_lane,
            "bump rewrites the path"
        );
    }

    #[test]
    fn blocking_mode_charges_serial_latency() {
        let (mut t, mut sh, mut dram, mut led) = setup(512, MerkleConfig::default());
        let before = led.serial();
        t.counter(&mut sh, &mut dram, &mut led, 0, AccessMode::Blocking)
            .unwrap();
        assert!(led.serial() > before);
    }

    #[test]
    fn many_counters_consistent_with_reference() {
        let (mut t, mut sh, mut dram, mut led) = setup(
            200,
            MerkleConfig {
                arity: 4,
                node_cache_bytes: 512,
            },
        );
        let mut reference = vec![0u64; 200];
        // Deterministic pseudo-random bump pattern.
        let mut state = 0x9e3779b9u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let idx = (state >> 33) as u32 % 200;
            reference[idx as usize] += 1;
            t.bump(&mut sh, &mut dram, &mut led, idx, AccessMode::Streaming)
                .unwrap();
        }
        for (idx, &expect) in reference.iter().enumerate() {
            assert_eq!(
                t.counter(
                    &mut sh,
                    &mut dram,
                    &mut led,
                    idx as u32,
                    AccessMode::Streaming
                )
                .unwrap(),
                expect
            );
        }
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = MerkleConfig {
            arity: 16,
            node_cache_bytes: 4096,
        };
        let mut w = Writer::new();
        cfg.serialize(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(MerkleConfig::deserialize(&mut r).unwrap(), cfg);
    }

    #[test]
    fn bad_arity_rejected() {
        assert!(MerkleConfig {
            arity: 1,
            node_cache_bytes: 0
        }
        .validate()
        .is_err());
        assert!(MerkleConfig {
            arity: 65,
            node_cache_bytes: 0
        }
        .validate()
        .is_err());
        assert!(MerkleConfig {
            arity: 2,
            node_cache_bytes: 0
        }
        .validate()
        .is_ok());
    }
}
