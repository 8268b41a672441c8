//! SDP: the GDPR-compliant storage node of §6.2.3 and Table 2.
//!
//! "We created an SDP accelerator that performs gets/puts using a
//! key-value store engine on top of the Shield. The Shield encrypts and
//! authenticates file accesses via the user key (to storage) and the TLS
//! key (to the application). … Table 2 shows normalized, steady-state
//! throughput overheads across Shield configurations for 1MB file
//! accesses, using a 4KB authentication block size. We used two
//! identical engine sets each with 16KB buffer — one for the storage
//! device and one for TLS."
//!
//! A `get` streams a file out of the storage region and re-emits it into
//! the TLS staging region (application-facing); a `put` goes the other
//! way. Both regions carry independent keys — exactly the paper's
//! "user key" / "TLS key" split, realized through per-region key
//! derivation.

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{AccessMode, EngineSetConfig, MemRange, ShieldConfig};
use shef_core::ShefError;
use shef_crypto::authenc::MacAlgorithm;

use crate::{workload_bytes, Accelerator, CryptoProfile, RegionData};

const STORAGE_BASE: u64 = 0;
const TLS_BASE: u64 = 8 << 30;
const BURST: usize = 4096;
/// KV datapath copy rate: bytes per cycle.
const COPY_BYTES_PER_CYCLE: u64 = 64;

/// One key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdpOp {
    /// Read file `i` from storage to the application (TLS) side.
    Get(usize),
    /// Write the application's buffer for slot `i` into storage.
    Put(usize),
}

/// One Table 2 engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdpEngineConfig {
    /// AES engines per set.
    pub aes_engines: usize,
    /// S-box parallelism.
    pub sbox: shef_crypto::aes::SBoxParallelism,
    /// MAC family.
    pub mac: MacAlgorithm,
    /// MAC engines per set (the paper scales PMAC engines with AES).
    pub mac_engines: usize,
}

impl SdpEngineConfig {
    /// The five Table 2 columns, in order.
    #[must_use]
    pub fn table2_columns() -> [(&'static str, SdpEngineConfig); 5] {
        use shef_crypto::aes::SBoxParallelism::{X16, X4};
        [
            (
                "4xEng/4x/HMAC",
                SdpEngineConfig {
                    aes_engines: 4,
                    sbox: X4,
                    mac: MacAlgorithm::HmacSha256,
                    mac_engines: 1,
                },
            ),
            (
                "4xEng/16x/HMAC",
                SdpEngineConfig {
                    aes_engines: 4,
                    sbox: X16,
                    mac: MacAlgorithm::HmacSha256,
                    mac_engines: 1,
                },
            ),
            (
                "4xEng/16x/PMAC",
                SdpEngineConfig {
                    aes_engines: 4,
                    sbox: X16,
                    mac: MacAlgorithm::PmacAes,
                    mac_engines: 4,
                },
            ),
            (
                "8xEng/16x/PMAC",
                SdpEngineConfig {
                    aes_engines: 8,
                    sbox: X16,
                    mac: MacAlgorithm::PmacAes,
                    mac_engines: 8,
                },
            ),
            (
                "16xEng/16x/PMAC",
                SdpEngineConfig {
                    aes_engines: 16,
                    sbox: X16,
                    mac: MacAlgorithm::PmacAes,
                    mac_engines: 16,
                },
            ),
        ]
    }
}

/// The SDP storage-node accelerator.
#[derive(Debug, Clone)]
pub struct SdpStore {
    file_bytes: usize,
    n_files: usize,
    ops: Vec<SdpOp>,
    engines: SdpEngineConfig,
    files: Vec<u8>,
    app_buffers: Vec<u8>,
}

impl SdpStore {
    /// Creates a store with `n_files` files of `file_bytes` each and a
    /// workload of operations, under a Table 2 engine configuration.
    ///
    /// # Panics
    ///
    /// Panics if `file_bytes` is not a positive multiple of 4 KB, if
    /// there are no files, or if an op references a missing file.
    #[must_use]
    pub fn new(
        file_bytes: usize,
        n_files: usize,
        ops: Vec<SdpOp>,
        engines: SdpEngineConfig,
        seed: u64,
    ) -> Self {
        assert!(
            file_bytes > 0 && file_bytes.is_multiple_of(4096),
            "file size must be a positive multiple of 4 KB"
        );
        assert!(n_files > 0, "need at least one file");
        for op in &ops {
            let idx = match op {
                SdpOp::Get(i) | SdpOp::Put(i) => *i,
            };
            assert!(idx < n_files, "op references file {idx} beyond {n_files}");
        }
        SdpStore {
            file_bytes,
            n_files,
            ops,
            engines,
            files: workload_bytes(seed.wrapping_add(3000), file_bytes * n_files),
            app_buffers: workload_bytes(seed.wrapping_add(4000), file_bytes * n_files),
        }
    }

    /// The Table 2 workload: steady-state gets of 1 MB files.
    #[must_use]
    pub fn table2_workload(engines: SdpEngineConfig, seed: u64) -> Self {
        let n_files = 4;
        let ops = (0..n_files).map(SdpOp::Get).collect();
        Self::new(1 << 20, n_files, ops, engines, seed)
    }

    fn region_len(&self) -> u64 {
        (self.file_bytes * self.n_files) as u64
    }

    fn file_range(&self, i: usize) -> (u64, usize) {
        ((i * self.file_bytes) as u64, self.file_bytes)
    }
}

impl Accelerator for SdpStore {
    fn id(&self) -> &str {
        "sdp"
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
        // Two identical engine sets, 16 KB buffers, C = 4 KB.
        let es = EngineSetConfig {
            aes_engines: self.engines.aes_engines,
            sbox: self.engines.sbox,
            key_size: profile.key_size,
            mac: self.engines.mac,
            mac_engines: self.engines.mac_engines,
            chunk_size: 4096,
            buffer_bytes: 16 * 1024,
            counters: false,
            zero_fill_writes: true,
            merkle: None,
        };
        ShieldConfig::builder()
            .region(
                "storage",
                MemRange::new(STORAGE_BASE, self.region_len()),
                es.clone(),
            )
            .region("tls", MemRange::new(TLS_BASE, self.region_len()), es)
            .build()
            .expect("sdp config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        let mut inputs = vec![RegionData::new("storage", self.files.clone())];
        // Application buffers for puts are staged in the TLS region.
        if self.ops.iter().any(|op| matches!(op, SdpOp::Put(_))) {
            inputs.push(RegionData::new("tls", self.app_buffers.clone()));
        }
        inputs
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        // Model the final state of both regions after the op sequence.
        let mut storage = self.files.clone();
        let mut tls = if self.ops.iter().any(|op| matches!(op, SdpOp::Put(_))) {
            self.app_buffers.clone()
        } else {
            vec![0u8; self.file_bytes * self.n_files]
        };
        for op in &self.ops {
            match op {
                SdpOp::Get(i) => {
                    let (off, len) = self.file_range(*i);
                    let off = off as usize;
                    tls[off..off + len].copy_from_slice(&storage[off..off + len]);
                }
                SdpOp::Put(i) => {
                    let (off, len) = self.file_range(*i);
                    let off = off as usize;
                    storage[off..off + len].copy_from_slice(&tls[off..off + len]);
                }
            }
        }
        // Only read back the file slots the workload actually wrote: a
        // `get` delivers through the TLS region, a `put` lands in
        // storage. (The paper measures get/put throughput, not a
        // full-store audit; reading back untouched slots would dilute
        // the measured overhead on both sides and, for never-written
        // slots, would not authenticate at all.)
        let mut got: Vec<usize> = Vec::new();
        let mut put: Vec<usize> = Vec::new();
        for op in &self.ops {
            match op {
                SdpOp::Get(i) if !got.contains(i) => got.push(*i),
                SdpOp::Put(i) if !put.contains(i) => put.push(*i),
                _ => {}
            }
        }
        let mut outputs = Vec::new();
        for i in got {
            let (off, len) = self.file_range(i);
            outputs.push(RegionData::at(
                "tls",
                off,
                tls[off as usize..off as usize + len].to_vec(),
            ));
        }
        for i in put {
            let (off, len) = self.file_range(i);
            outputs.push(RegionData::at(
                "storage",
                off,
                storage[off as usize..off as usize + len].to_vec(),
            ));
        }
        outputs
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let ops = self.ops.clone();
        for op in ops {
            let (src_base, dst_base, idx) = match op {
                SdpOp::Get(i) => (STORAGE_BASE, TLS_BASE, i),
                SdpOp::Put(i) => (TLS_BASE, STORAGE_BASE, i),
            };
            let (off, len) = self.file_range(idx);
            let mut moved = 0usize;
            while moved < len {
                let take = BURST.min(len - moved);
                let data = bus.read(src_base + off + moved as u64, take, AccessMode::Streaming)?;
                bus.compute(take as u64 / COPY_BYTES_PER_CYCLE);
                bus.write(dst_base + off + moved as u64, &data, AccessMode::Streaming)?;
                moved += take;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_baseline, run_shielded_parallel};
    use shef_core::shield::WorkerPool;

    fn engines() -> SdpEngineConfig {
        SdpEngineConfig::table2_columns()[2].1 // 4xEng/16x/PMAC
    }

    #[test]
    fn gets_move_files_to_tls() {
        let pool = WorkerPool::new(1);
        let mut s = SdpStore::new(4096, 2, vec![SdpOp::Get(0), SdpOp::Get(1)], engines(), 1);
        assert!(run_baseline(&mut s).unwrap().outputs_verified);
        let mut s = SdpStore::new(4096, 2, vec![SdpOp::Get(0), SdpOp::Get(1)], engines(), 1);
        assert!(
            run_shielded_parallel(&mut s, &CryptoProfile::AES128_16X, 2, &pool)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn puts_move_buffers_to_storage() {
        let pool = WorkerPool::new(1);
        let mut s = SdpStore::new(4096, 2, vec![SdpOp::Put(1)], engines(), 1);
        assert!(run_baseline(&mut s).unwrap().outputs_verified);
        let mut s = SdpStore::new(4096, 2, vec![SdpOp::Put(1)], engines(), 1);
        assert!(
            run_shielded_parallel(&mut s, &CryptoProfile::AES128_16X, 2, &pool)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn pmac_configs_beat_hmac_configs() {
        let pool = WorkerPool::new(1);
        // The Table 2 story in miniature.
        let cols = SdpEngineConfig::table2_columns();
        let hmac = cols[1].1;
        let pmac = cols[2].1;
        let mut s = SdpStore::new(64 * 1024, 1, vec![SdpOp::Get(0)], hmac, 3);
        let hmac_cycles = run_shielded_parallel(&mut s, &CryptoProfile::AES128_16X, 2, &pool)
            .unwrap()
            .cycles;
        let mut s = SdpStore::new(64 * 1024, 1, vec![SdpOp::Get(0)], pmac, 3);
        let pmac_cycles = run_shielded_parallel(&mut s, &CryptoProfile::AES128_16X, 2, &pool)
            .unwrap()
            .cycles;
        assert!(pmac_cycles < hmac_cycles);
    }

    #[test]
    fn table2_columns_are_the_paper_sweep() {
        let cols = SdpEngineConfig::table2_columns();
        assert_eq!(cols.len(), 5);
        assert_eq!(cols[0].1.aes_engines, 4);
        assert_eq!(cols[4].1.aes_engines, 16);
        assert_eq!(cols[0].1.mac, MacAlgorithm::HmacSha256);
        assert_eq!(cols[2].1.mac, MacAlgorithm::PmacAes);
    }

    #[test]
    #[should_panic(expected = "multiple of 4 KB")]
    fn bad_file_size_rejected() {
        let _ = SdpStore::new(1000, 1, vec![], engines(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn out_of_range_op_rejected() {
        let _ = SdpStore::new(4096, 1, vec![SdpOp::Get(5)], engines(), 0);
    }
}
