//! Path ORAM on top of the Shield — the §5.2 extension hook.
//!
//! The paper closes its side-channel discussion with: "Further security
//! mechanisms against address metadata attacks, such as ORAM, can
//! simply be added by adopting open-source modules (e.g., [Fletcher et
//! al.]) on top of Shield engines due to their generic interface."
//! This module demonstrates exactly that: a Path ORAM controller
//! (Stefanov et al., CCS'13) written against the same
//! [`MemoryBus`] port the accelerators use —
//! so it runs unchanged over a Shield-protected region (hiding *which*
//! logical block is touched, on top of the Shield's confidentiality and
//! integrity) or over plain memory.
//!
//! Design (non-recursive Path ORAM):
//! * a binary tree of buckets, [`BUCKET_SLOTS`] blocks per bucket,
//!   stored contiguously in one memory region;
//! * an in-enclave position map and stash (they live inside the
//!   accelerator's on-chip state, like the Shield's own buffers);
//! * every access reads one root→leaf path, remaps the block to a fresh
//!   random leaf, and greedily writes the path back.
//!
//! The observable trace of *every* access is one uniformly random path
//! — the address side channel the controlled-channel analysis in
//! [`crate::sidechannel`] quantifies is closed entirely.

use shef_crypto::drbg::HmacDrbg;

use crate::shield::bus::MemoryBus;
use crate::shield::AccessMode;
use crate::ShefError;

/// Blocks per bucket (Z in the Path ORAM paper; 4 gives negligible
/// stash overflow probability).
pub const BUCKET_SLOTS: usize = 4;
/// Slot header: the logical block id (u64; `EMPTY_ID` marks a free slot).
const SLOT_HEADER: usize = 8;
const EMPTY_ID: u64 = u64::MAX;

/// A Path ORAM controller over a `[base, base + tree_bytes)` window of
/// a [`MemoryBus`].
pub struct PathOram {
    base: u64,
    block_size: usize,
    levels: u32,
    n_blocks: u64,
    position: Vec<u32>,
    stash: Vec<(u64, Vec<u8>)>,
    rng: HmacDrbg,
    accesses: u64,
}

impl core::fmt::Debug for PathOram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PathOram")
            .field("n_blocks", &self.n_blocks)
            .field("levels", &self.levels)
            .field("stash_len", &self.stash.len())
            .field("accesses", &self.accesses)
            .finish()
    }
}

impl PathOram {
    /// Bytes of memory a tree for `n_blocks` blocks of `block_size`
    /// occupies.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero or `block_size` is zero.
    #[must_use]
    pub fn tree_bytes(n_blocks: u64, block_size: usize) -> u64 {
        let levels = levels_for(n_blocks);
        let buckets = (1u64 << (levels + 1)) - 1;
        buckets * (BUCKET_SLOTS * (SLOT_HEADER + block_size)) as u64
    }

    /// Creates a controller and formats the tree (all slots empty).
    ///
    /// # Errors
    ///
    /// Propagates bus errors while formatting.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` or `block_size` is zero.
    pub fn format(
        bus: &mut dyn MemoryBus,
        base: u64,
        n_blocks: u64,
        block_size: usize,
        seed: &[u8],
    ) -> Result<Self, ShefError> {
        assert!(n_blocks > 0, "ORAM needs at least one block");
        assert!(block_size > 0, "blocks must be non-empty");
        let levels = levels_for(n_blocks);
        let mut rng = HmacDrbg::from_seed(seed);
        rng.reseed(b"shef.oram");
        let n_leaves = 1u64 << levels;
        let mut oram = PathOram {
            base,
            block_size,
            levels,
            n_blocks,
            position: Vec::with_capacity(n_blocks as usize),
            stash: Vec::new(),
            rng,
            accesses: 0,
        };
        for _ in 0..n_blocks {
            let leaf = oram.rng.next_u64() % n_leaves;
            oram.position.push(leaf as u32);
        }
        // Format every bucket as empty.
        let empty_bucket = oram.encode_bucket(&[]);
        let buckets = (1u64 << (levels + 1)) - 1;
        for b in 0..buckets {
            bus.write(
                base + b * oram.bucket_bytes() as u64,
                &empty_bucket,
                AccessMode::Streaming,
            )?;
        }
        Ok(oram)
    }

    fn bucket_bytes(&self) -> usize {
        BUCKET_SLOTS * (SLOT_HEADER + self.block_size)
    }

    /// Bucket index of level `level` on the path to `leaf` (standard
    /// heap layout: root = 0).
    fn bucket_on_path(&self, leaf: u32, level: u32) -> u64 {
        let leaf_node = (1u64 << self.levels) - 1 + leaf as u64;
        let mut node = leaf_node;
        for _ in 0..(self.levels - level) {
            node = (node - 1) / 2;
        }
        node
    }

    fn encode_bucket(&self, blocks: &[(u64, &[u8])]) -> Vec<u8> {
        debug_assert!(blocks.len() <= BUCKET_SLOTS);
        let mut out = Vec::with_capacity(self.bucket_bytes());
        for slot in 0..BUCKET_SLOTS {
            match blocks.get(slot) {
                Some((id, data)) => {
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(data);
                }
                None => {
                    out.extend_from_slice(&EMPTY_ID.to_le_bytes());
                    out.extend_from_slice(&vec![0u8; self.block_size]);
                }
            }
        }
        out
    }

    fn decode_bucket(&self, bytes: &[u8]) -> Vec<(u64, Vec<u8>)> {
        let mut blocks = Vec::new();
        for slot in 0..BUCKET_SLOTS {
            let off = slot * (SLOT_HEADER + self.block_size);
            let id = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte id"));
            if id != EMPTY_ID {
                blocks.push((id, bytes[off + 8..off + 8 + self.block_size].to_vec()));
            }
        }
        blocks
    }

    /// True if a block mapped to `block_leaf` may live in the bucket at
    /// `level` of the path to `path_leaf` (their paths coincide down to
    /// that level).
    fn can_place(&self, block_leaf: u32, path_leaf: u32, level: u32) -> bool {
        self.bucket_on_path(block_leaf, level) == self.bucket_on_path(path_leaf, level)
    }

    /// The single access primitive: reads or writes logical block `id`.
    /// Returns the block's (previous) contents.
    ///
    /// # Errors
    ///
    /// Propagates bus errors; [`ShefError::Malformed`] for out-of-range
    /// ids.
    pub fn access(
        &mut self,
        bus: &mut dyn MemoryBus,
        id: u64,
        write: Option<&[u8]>,
    ) -> Result<Vec<u8>, ShefError> {
        if id >= self.n_blocks {
            return Err(ShefError::Malformed(format!(
                "block {id} out of range ({} blocks)",
                self.n_blocks
            )));
        }
        if let Some(data) = write {
            if data.len() != self.block_size {
                return Err(ShefError::Malformed(format!(
                    "block payload must be {} bytes, got {}",
                    self.block_size,
                    data.len()
                )));
            }
        }
        self.accesses += 1;
        let leaf = self.position[id as usize];
        // Remap to a fresh uniformly random leaf before touching memory.
        let n_leaves = 1u64 << self.levels;
        self.position[id as usize] = (self.rng.next_u64() % n_leaves) as u32;

        // 1. Read the whole path into the stash.
        for level in 0..=self.levels {
            let bucket = self.bucket_on_path(leaf, level);
            let bytes = bus.read(
                self.base + bucket * self.bucket_bytes() as u64,
                self.bucket_bytes(),
                AccessMode::Streaming,
            )?;
            for (bid, data) in self.decode_bucket(&bytes) {
                if !self.stash.iter().any(|(sid, _)| *sid == bid) {
                    self.stash.push((bid, data));
                }
            }
        }

        // 2. Serve the request from the stash.
        let previous = match self.stash.iter_mut().find(|(sid, _)| *sid == id) {
            Some((_, data)) => {
                let old = data.clone();
                if let Some(new) = write {
                    data.copy_from_slice(new);
                }
                old
            }
            None => {
                // First touch: block springs into existence zero-filled.
                let old = vec![0u8; self.block_size];
                let content = write.map_or_else(|| old.clone(), <[u8]>::to_vec);
                self.stash.push((id, content));
                old
            }
        };

        // 3. Write the path back, placing stash blocks as deep as their
        //    (new) leaf assignment allows.
        for level in (0..=self.levels).rev() {
            let bucket = self.bucket_on_path(leaf, level);
            let mut placed: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut i = 0;
            while i < self.stash.len() && placed.len() < BUCKET_SLOTS {
                let (bid, _) = &self.stash[i];
                let block_leaf = self.position[*bid as usize];
                if self.can_place(block_leaf, leaf, level) {
                    placed.push(self.stash.remove(i));
                } else {
                    i += 1;
                }
            }
            let refs: Vec<(u64, &[u8])> = placed
                .iter()
                .map(|(bid, data)| (*bid, data.as_slice()))
                .collect();
            let encoded = self.encode_bucket(&refs);
            bus.write(
                self.base + bucket * self.bucket_bytes() as u64,
                &encoded,
                AccessMode::Streaming,
            )?;
        }
        Ok(previous)
    }

    /// Convenience read.
    ///
    /// # Errors
    ///
    /// See [`PathOram::access`].
    pub fn read(&mut self, bus: &mut dyn MemoryBus, id: u64) -> Result<Vec<u8>, ShefError> {
        self.access(bus, id, None)
    }

    /// Convenience write; returns the previous contents.
    ///
    /// # Errors
    ///
    /// See [`PathOram::access`].
    pub fn write(
        &mut self,
        bus: &mut dyn MemoryBus,
        id: u64,
        data: &[u8],
    ) -> Result<Vec<u8>, ShefError> {
        self.access(bus, id, Some(data))
    }

    /// Current stash occupancy (bounded with overwhelming probability).
    #[must_use]
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Total accesses served.
    #[must_use]
    pub fn access_count(&self) -> u64 {
        self.accesses
    }
}

fn levels_for(n_blocks: u64) -> u32 {
    // Enough leaves that each block maps to its own leaf on average.
    64 - n_blocks.next_power_of_two().leading_zeros() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::bus::{MemoryBus, PlainBus};
    use crate::shield::WorkerPool;
    use shef_fpga::clock::CostLedger;
    use shef_fpga::dram::Dram;
    use shef_fpga::shell::Shell;
    use std::collections::HashMap;

    /// A bus wrapper recording every (addr, len) touched.
    struct RecordingBus<'a> {
        inner: &'a mut dyn MemoryBus,
        trace: Vec<(u64, usize)>,
    }

    impl MemoryBus for RecordingBus<'_> {
        fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Result<Vec<u8>, ShefError> {
            self.trace.push((addr, len));
            self.inner.read(addr, len, mode)
        }
        fn write(&mut self, addr: u64, data: &[u8], mode: AccessMode) -> Result<(), ShefError> {
            self.trace.push((addr, data.len()));
            self.inner.write(addr, data, mode)
        }
        fn flush(&mut self) -> Result<(), ShefError> {
            self.inner.flush()
        }
        fn compute(&mut self, cycles: u64) {
            self.inner.compute(cycles);
        }
        fn reg_read(&mut self, index: usize) -> u64 {
            self.inner.reg_read(index)
        }
        fn reg_write(&mut self, index: usize, value: u64) {
            self.inner.reg_write(index, value);
        }
    }

    fn plain_env() -> (Shell, Dram, CostLedger, Vec<u64>) {
        (
            Shell::new(),
            Dram::new(1 << 26),
            CostLedger::new(),
            vec![0u64; 4],
        )
    }

    #[test]
    fn read_write_matches_reference_map() {
        let (mut shell, mut dram, mut ledger, mut regs) = plain_env();
        let mut bus = PlainBus {
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            regs: &mut regs,
        };
        let mut oram = PathOram::format(&mut bus, 0, 32, 16, b"test").unwrap();
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = HmacDrbg::from_seed(b"workload");
        for _ in 0..200 {
            let id = rng.next_u64() % 32;
            if rng.next_u64().is_multiple_of(2) {
                let data = rng.generate_array::<16>().to_vec();
                oram.write(&mut bus, id, &data).unwrap();
                reference.insert(id, data);
            } else {
                let got = oram.read(&mut bus, id).unwrap();
                let expect = reference.get(&id).cloned().unwrap_or_else(|| vec![0u8; 16]);
                assert_eq!(got, expect, "block {id}");
            }
        }
        assert_eq!(oram.access_count(), 200);
    }

    #[test]
    fn stash_stays_bounded() {
        let (mut shell, mut dram, mut ledger, mut regs) = plain_env();
        let mut bus = PlainBus {
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            regs: &mut regs,
        };
        let mut oram = PathOram::format(&mut bus, 0, 64, 8, b"stash").unwrap();
        let mut rng = HmacDrbg::from_seed(b"stash-load");
        for i in 0..500 {
            let id = rng.next_u64() % 64;
            oram.write(&mut bus, id, &[i as u8; 8]).unwrap();
            assert!(
                oram.stash_len() < 40,
                "stash blew up to {} after {} accesses",
                oram.stash_len(),
                i + 1
            );
        }
    }

    #[test]
    fn every_access_touches_exactly_one_path() {
        let (mut shell, mut dram, mut ledger, mut regs) = plain_env();
        let mut inner = PlainBus {
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            regs: &mut regs,
        };
        let mut oram = PathOram::format(&mut inner, 0, 16, 8, b"trace").unwrap();
        let bucket = oram.bucket_bytes();
        let levels = oram.levels;
        // Two very different logical workloads…
        for id in [0u64, 0, 0, 0] {
            let mut bus = RecordingBus {
                inner: &mut inner,
                trace: Vec::new(),
            };
            oram.read(&mut bus, id).unwrap();
            // …produce traces of identical SHAPE: (levels+1) bucket reads
            // then (levels+1) bucket writes, all bucket-aligned.
            assert_eq!(bus.trace.len(), 2 * (levels as usize + 1));
            for (addr, len) in &bus.trace {
                assert_eq!(*len, bucket);
                assert_eq!((*addr as usize) % bucket, 0);
            }
        }
        for id in [1u64, 7, 3, 15] {
            let mut bus = RecordingBus {
                inner: &mut inner,
                trace: Vec::new(),
            };
            oram.read(&mut bus, id).unwrap();
            assert_eq!(bus.trace.len(), 2 * (levels as usize + 1));
        }
    }

    #[test]
    fn works_over_a_shield() {
        use crate::shield::bus::ShieldedBus;
        use crate::shield::{DataEncryptionKey, EngineSetConfig, MemRange, Shield, ShieldConfig};
        use shef_crypto::ecies::EciesKeyPair;

        let n_blocks = 16u64;
        let block = 32usize;
        let tree = PathOram::tree_bytes(n_blocks, block);
        let config = ShieldConfig::builder()
            .region(
                "oram-tree",
                MemRange::new(0, tree.next_multiple_of(512)),
                EngineSetConfig {
                    chunk_size: 64,
                    buffer_bytes: 4096,
                    counters: true,
                    zero_fill_writes: true,
                    ..EngineSetConfig::default()
                },
            )
            .build()
            .unwrap();
        let mut shield = Shield::new(config, EciesKeyPair::from_seed(b"oram")).unwrap();
        let dek = DataEncryptionKey::from_bytes([0x0Au8; 32]);
        shield
            .provision_load_key(&dek.to_load_key(&shield.public_key()))
            .unwrap();
        let mut shell = Shell::new();
        let mut dram = Dram::f1_default();
        let mut ledger = CostLedger::new();
        let pool = WorkerPool::new(1);
        let mut bus = ShieldedBus {
            shield: &mut shield,
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            pool: &pool,
        };
        let mut oram = PathOram::format(&mut bus, 0, n_blocks, block, b"shielded").unwrap();
        oram.write(&mut bus, 3, &[0xCC; 32]).unwrap();
        oram.write(&mut bus, 9, &[0xDD; 32]).unwrap();
        assert_eq!(oram.read(&mut bus, 3).unwrap(), vec![0xCC; 32]);
        assert_eq!(oram.read(&mut bus, 9).unwrap(), vec![0xDD; 32]);
        bus.flush().unwrap();
        // Defence in depth: the tree in DRAM is Shield ciphertext, and
        // the ORAM hides which block each path access targeted.
        let raw = dram.tamper_read(0, tree as usize);
        assert!(!raw.windows(32).any(|w| w == [0xCC; 32]));
    }

    #[test]
    fn rejects_bad_arguments() {
        let (mut shell, mut dram, mut ledger, mut regs) = plain_env();
        let mut bus = PlainBus {
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            regs: &mut regs,
        };
        let mut oram = PathOram::format(&mut bus, 0, 8, 16, b"args").unwrap();
        assert!(oram.read(&mut bus, 8).is_err());
        assert!(oram.write(&mut bus, 0, &[1u8; 15]).is_err());
    }

    #[test]
    fn tree_sizing() {
        // 8 blocks → 3 levels → 15 buckets × 4 slots × (8 + 16) bytes.
        assert_eq!(PathOram::tree_bytes(8, 16), 15 * 4 * 24);
        assert!(PathOram::tree_bytes(1, 16) > 0);
    }
}
