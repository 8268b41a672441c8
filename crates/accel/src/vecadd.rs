//! Vector-vector addition — the Fig. 5 throughput microbenchmark.
//!
//! "A vector-vector add microbenchmark that streams in two vectors and
//! outputs their sum. The input and output vectors are partitioned and
//! secured with four engine sets each; each set contains one AES-128 and
//! HMAC engine and uses a 512-byte chunk. The actual logic is minimal
//! and the workload is strictly bound by off-chip memory accesses."

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{AccessMode, EngineSetConfig, ShieldConfig};
use shef_core::ShefError;

use crate::{
    bytes_to_u32s, stripe_regions, u32s_to_bytes, with_profile, workload_bytes, Accelerator,
    CryptoProfile, RegionData,
};

const VEC_A_BASE: u64 = 0;
const VEC_B_BASE: u64 = 1 << 30;
const VEC_OUT_BASE: u64 = 2 << 30;
/// Burst size the datapath uses per iteration.
const BURST: usize = 4096;
/// Adder lanes: 16 u32 additions per cycle.
const LANES: u64 = 16;

/// The vector-add accelerator.
#[derive(Debug, Clone)]
pub struct VectorAdd {
    len_bytes: usize,
    a: Vec<u8>,
    b: Vec<u8>,
}

impl VectorAdd {
    /// Creates a vector-add over two `len_bytes`-long vectors of u32s.
    ///
    /// # Panics
    ///
    /// Panics unless `len_bytes` is a positive multiple of 2 KB (so the
    /// vectors stripe evenly over the paper's engine-set layout).
    #[must_use]
    pub fn new(len_bytes: usize, seed: u64) -> Self {
        assert!(
            len_bytes > 0 && len_bytes.is_multiple_of(2048),
            "vector length must be a positive multiple of 2 KB"
        );
        VectorAdd {
            len_bytes,
            a: workload_bytes(seed.wrapping_mul(2).wrapping_add(1), len_bytes),
            b: workload_bytes(seed.wrapping_mul(2).wrapping_add(2), len_bytes),
        }
    }

    fn sum(&self) -> Vec<u8> {
        let a = bytes_to_u32s(&self.a);
        let b = bytes_to_u32s(&self.b);
        let out: Vec<u32> = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| x.wrapping_add(*y))
            .collect();
        u32s_to_bytes(&out)
    }
}

impl Accelerator for VectorAdd {
    fn id(&self) -> &str {
        "vecadd"
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
        // Paper layout: 4 engine sets across the inputs (2 per vector),
        // 4 across the output; 1 AES + 1 HMAC each; C = 512 B.
        let es = with_profile(
            EngineSetConfig {
                chunk_size: 512,
                ..EngineSetConfig::default()
            },
            profile,
        );
        let out_es = EngineSetConfig {
            zero_fill_writes: true,
            ..es.clone()
        };
        let len = self.len_bytes as u64;
        let mut builder = ShieldConfig::builder();
        builder = stripe_regions(builder, "vec-a", VEC_A_BASE, len, 2, &es);
        builder = stripe_regions(builder, "vec-b", VEC_B_BASE, len, 2, &es);
        builder = stripe_regions(builder, "vec-out", VEC_OUT_BASE, len, 4, &out_es);
        builder.build().expect("vecadd config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        let half = self.len_bytes / 2;
        vec![
            RegionData::new("vec-a0", self.a[..half].to_vec()),
            RegionData::new("vec-a1", self.a[half..].to_vec()),
            RegionData::new("vec-b0", self.b[..half].to_vec()),
            RegionData::new("vec-b1", self.b[half..].to_vec()),
        ]
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        let sum = self.sum();
        let quarter = self.len_bytes / 4;
        (0..4)
            .map(|i| {
                RegionData::new(
                    &format!("vec-out{i}"),
                    sum[i * quarter..(i + 1) * quarter].to_vec(),
                )
            })
            .collect()
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let mut offset = 0usize;
        while offset < self.len_bytes {
            let take = BURST.min(self.len_bytes - offset);
            let a = bus.read(VEC_A_BASE + offset as u64, take, AccessMode::Streaming)?;
            let b = bus.read(VEC_B_BASE + offset as u64, take, AccessMode::Streaming)?;
            let sum: Vec<u32> = bytes_to_u32s(&a)
                .iter()
                .zip(bytes_to_u32s(&b).iter())
                .map(|(x, y)| x.wrapping_add(*y))
                .collect();
            bus.compute(sum.len() as u64 / LANES);
            bus.write(
                VEC_OUT_BASE + offset as u64,
                &u32s_to_bytes(&sum),
                AccessMode::Streaming,
            )?;
            offset += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_baseline, run_shielded_parallel};
    use shef_core::shield::WorkerPool;

    #[test]
    fn config_uses_paper_layout() {
        let v = VectorAdd::new(64 * 1024, 0);
        let cfg = v.shield_config(&CryptoProfile::AES128_16X);
        assert_eq!(cfg.regions.len(), 8); // 4 input sets + 4 output sets
        assert!(cfg.regions.iter().all(|r| r.engine_set.chunk_size == 512));
        assert!(cfg.regions.iter().all(|r| r.engine_set.aes_engines == 1));
    }

    #[test]
    fn computes_correct_sums_baseline() {
        let mut v = VectorAdd::new(16 * 1024, 3);
        let report = run_baseline(&mut v).unwrap();
        assert!(report.outputs_verified);
    }

    #[test]
    fn computes_correct_sums_shielded() {
        let pool = WorkerPool::new(1);
        let mut v = VectorAdd::new(16 * 1024, 3);
        let report = run_shielded_parallel(&mut v, &CryptoProfile::AES128_4X, 1, &pool).unwrap();
        assert!(report.outputs_verified);
    }

    #[test]
    #[should_panic(expected = "multiple of 2 KB")]
    fn odd_sizes_rejected() {
        let _ = VectorAdd::new(1000, 0);
    }

    #[test]
    fn sixteen_x_is_not_slower_than_four_x() {
        let pool = WorkerPool::new(1);
        let mk = |_| VectorAdd::new(64 * 1024, 5);
        let mut a = mk(());
        let fast = run_shielded_parallel(&mut a, &CryptoProfile::AES128_16X, 1, &pool).unwrap();
        let mut b = mk(());
        let slow = run_shielded_parallel(&mut b, &CryptoProfile::AES128_4X, 1, &pool).unwrap();
        assert!(fast.cycles <= slow.cycles);
    }
}
