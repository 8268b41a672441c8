//! Matrix multiplication — the second §6.2.2 microbenchmark.
//!
//! "We analyzed similarly a matrix multiply microbenchmark, which
//! yielded similar, but less pronounced, insights (maximum overhead of
//! 1.26x for AES/4x) as matrix multiplication involves more computation
//! per data accessed."
//!
//! The model streams B once into on-chip memory (the VU9P's 382 Mb pool
//! easily holds the paper-scale operand), streams A, and streams C out —
//! one pass over each operand with O(n³) compute, which is what gives
//! matmul its higher arithmetic intensity than vecadd.

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{AccessMode, EngineSetConfig, MemRange, ShieldConfig};
use shef_core::ShefError;

use crate::{
    bytes_to_u32s, u32s_to_bytes, with_profile, workload_bytes, Accelerator, CryptoProfile,
    RegionData,
};

const MAT_A_BASE: u64 = 0;
const MAT_B_BASE: u64 = 1 << 30;
const MAT_C_BASE: u64 = 2 << 30;
const BURST: usize = 4096;
/// Systolic array: 256 MACs per cycle.
const MACS_PER_CYCLE: u64 = 256;

/// The matrix-multiply accelerator (square u32 matrices, wrapping
/// arithmetic).
#[derive(Debug, Clone)]
pub struct MatMul {
    n: usize,
    a: Vec<u32>,
    b: Vec<u32>,
}

impl MatMul {
    /// Creates an `n × n` multiply.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 16.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(16),
            "matrix dimension must be a positive multiple of 16"
        );
        let a = bytes_to_u32s(&workload_bytes(seed.wrapping_add(100), n * n * 4));
        let b = bytes_to_u32s(&workload_bytes(seed.wrapping_add(200), n * n * 4));
        MatMul { n, a, b }
    }

    fn golden(&self) -> Vec<u32> {
        let n = self.n;
        let mut c = vec![0u32; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                for j in 0..n {
                    c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(self.b[k * n + j]));
                }
            }
        }
        c
    }

    fn bytes(&self) -> usize {
        self.n * self.n * 4
    }
}

impl Accelerator for MatMul {
    fn id(&self) -> &str {
        "matmul"
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
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
        let len = self.bytes() as u64;
        ShieldConfig::builder()
            .region("mat-a", MemRange::new(MAT_A_BASE, len), es.clone())
            .region("mat-b", MemRange::new(MAT_B_BASE, len), es)
            .region("mat-c", MemRange::new(MAT_C_BASE, len), out_es)
            .build()
            .expect("matmul config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        vec![
            RegionData::new("mat-a", u32s_to_bytes(&self.a)),
            RegionData::new("mat-b", u32s_to_bytes(&self.b)),
        ]
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        vec![RegionData::new("mat-c", u32s_to_bytes(&self.golden()))]
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let n = self.n;
        let total = self.bytes();
        // Stream B once into on-chip storage.
        let mut b_words = Vec::with_capacity(n * n);
        let mut offset = 0usize;
        while offset < total {
            let take = BURST.min(total - offset);
            let chunk = bus.read(MAT_B_BASE + offset as u64, take, AccessMode::Streaming)?;
            b_words.extend(bytes_to_u32s(&chunk));
            offset += take;
        }
        // Stream A row by row, compute, stream C out.
        let row_bytes = n * 4;
        for i in 0..n {
            let row = bus.read(
                MAT_A_BASE + (i * row_bytes) as u64,
                row_bytes,
                AccessMode::Streaming,
            )?;
            let a_row = bytes_to_u32s(&row);
            let mut c_row = vec![0u32; n];
            for k in 0..n {
                let aik = a_row[k];
                for (j, c) in c_row.iter_mut().enumerate() {
                    *c = c.wrapping_add(aik.wrapping_mul(b_words[k * n + j]));
                }
            }
            bus.compute((n as u64 * n as u64).div_ceil(MACS_PER_CYCLE));
            bus.write(
                MAT_C_BASE + (i * row_bytes) as u64,
                &u32s_to_bytes(&c_row),
                AccessMode::Streaming,
            )?;
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
    fn small_matmul_is_correct() {
        let pool = WorkerPool::new(1);
        let mut m = MatMul::new(32, 9);
        assert!(run_baseline(&mut m).unwrap().outputs_verified);
        let mut m = MatMul::new(32, 9);
        assert!(
            run_shielded_parallel(&mut m, &CryptoProfile::AES128_4X, 2, &pool)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn golden_model_identity() {
        // A × I = A.
        let mut m = MatMul::new(16, 1);
        let n = m.n;
        m.b = (0..n * n)
            .map(|idx| if idx / n == idx % n { 1u32 } else { 0 })
            .collect();
        assert_eq!(m.golden(), m.a);
    }

    #[test]
    fn overhead_is_mild_thanks_to_arithmetic_intensity() {
        let pool = WorkerPool::new(1);
        // The paper's point: matmul overhead < vecadd overhead at the
        // same profile, because compute hides crypto.
        let mut m = MatMul::new(64, 3);
        let base = run_baseline(&mut m).unwrap();
        let mut m = MatMul::new(64, 3);
        let shielded = run_shielded_parallel(&mut m, &CryptoProfile::AES128_4X, 2, &pool).unwrap();
        let ratio = shielded.cycles.0 as f64 / base.cycles.0 as f64;
        assert!(ratio < 2.0, "matmul overhead should be mild, got {ratio}");
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn bad_dimension_rejected() {
        let _ = MatMul::new(10, 0);
    }
}
