//! Affine image transformation — the Xilinx vision workload of Fig. 6.
//!
//! "An affine transformation kernel over 512×512 input images …
//! Affine Transformation reads non-sequential data, but reads each
//! address once with no writes [to the same location]. Thus … we can
//! save on-chip memory by disabling integrity counters. Since Affine
//! Transformation accesses data at consistent chunks of 64B, we use 8
//! engine sets for inputs with a total 32KB buffer and 4 engine sets for
//! outputs with a total 16KB buffer" (overheads 1.41–2.22×).
//!
//! The kernel inverse-maps every output pixel through an affine matrix
//! and gathers the nearest source pixel — the classic random-access
//! pattern with small chunks and heavy per-chunk tag overhead.

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{AccessMode, EngineSetConfig, ShieldConfig};
use shef_core::ShefError;

use crate::{
    bytes_to_u32s, stripe_regions, u32s_to_bytes, with_profile, workload_bytes, Accelerator,
    CryptoProfile, RegionData,
};

const SRC_BASE: u64 = 0;
const DST_BASE: u64 = 1 << 30;
/// Pixels processed per cycle by the address-generation datapath.
const PIXELS_PER_CYCLE: u64 = 4;

/// Fixed-point affine transform (16.16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineMatrix {
    /// Row 0: x' = (a·x + b·y) >> 16 + tx.
    pub a: i32,
    /// See `a`.
    pub b: i32,
    /// Translation in x.
    pub tx: i32,
    /// Row 1: y' = (c·x + d·y) >> 16 + ty.
    pub c: i32,
    /// See `c`.
    pub d: i32,
    /// Translation in y.
    pub ty: i32,
}

impl AffineMatrix {
    /// A mild rotation + shift: exercises spatial-but-non-sequential
    /// access, as the paper's kernel does.
    #[must_use]
    pub fn rotation_like() -> Self {
        // cos(20°)≈0.94, sin(20°)≈0.34 in 16.16 fixed point.
        AffineMatrix {
            a: 61_603,
            b: 22_417,
            tx: -60,
            c: -22_417,
            d: 61_603,
            ty: 120,
        }
    }
}

/// The affine-transform accelerator.
#[derive(Debug, Clone)]
pub struct AffineTransform {
    size: usize,
    src: Vec<u32>,
    matrix: AffineMatrix,
}

impl AffineTransform {
    /// Creates a transform over a `size × size` 32-bit image.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a positive multiple of 64.
    #[must_use]
    pub fn new(size: usize, seed: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(64),
            "image size must be a positive multiple of 64"
        );
        AffineTransform {
            size,
            src: bytes_to_u32s(&workload_bytes(seed.wrapping_add(77), size * size * 4)),
            matrix: AffineMatrix::rotation_like(),
        }
    }

    /// The paper's 512×512 configuration.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self::new(512, seed)
    }

    fn map(&self, x: usize, y: usize) -> Option<(usize, usize)> {
        let m = self.matrix;
        let sx = ((m.a as i64 * x as i64 + m.b as i64 * y as i64) >> 16) as i32 + m.tx;
        let sy = ((m.c as i64 * x as i64 + m.d as i64 * y as i64) >> 16) as i32 + m.ty;
        if sx < 0 || sy < 0 || sx >= self.size as i32 || sy >= self.size as i32 {
            None
        } else {
            Some((sx as usize, sy as usize))
        }
    }

    fn golden(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.size * self.size];
        for y in 0..self.size {
            for x in 0..self.size {
                if let Some((sx, sy)) = self.map(x, y) {
                    out[y * self.size + x] = self.src[sy * self.size + sx];
                }
            }
        }
        out
    }

    fn image_bytes(&self) -> usize {
        self.size * self.size * 4
    }
}

impl Accelerator for AffineTransform {
    fn id(&self) -> &str {
        "affine"
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
        // Paper: C = 64 B, 8 input sets (32 KB buffer total), 4 output
        // sets (16 KB), counters disabled.
        let in_es = with_profile(
            EngineSetConfig {
                chunk_size: 64,
                buffer_bytes: 4 * 1024, // × 8 = 32 KB
                ..EngineSetConfig::default()
            },
            profile,
        );
        let out_es = with_profile(
            EngineSetConfig {
                chunk_size: 64,
                buffer_bytes: 4 * 1024, // × 4 = 16 KB
                zero_fill_writes: true,
                ..EngineSetConfig::default()
            },
            profile,
        );
        let len = self.image_bytes() as u64;
        let mut builder = ShieldConfig::builder();
        builder = stripe_regions(builder, "img-in", SRC_BASE, len, 8, &in_es);
        builder = stripe_regions(builder, "img-out", DST_BASE, len, 4, &out_es);
        builder.build().expect("affine config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        let bytes = u32s_to_bytes(&self.src);
        let stripe = bytes.len() / 8;
        (0..8)
            .map(|i| {
                RegionData::new(
                    &format!("img-in{i}"),
                    bytes[i * stripe..(i + 1) * stripe].to_vec(),
                )
            })
            .collect()
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        let bytes = u32s_to_bytes(&self.golden());
        let stripe = bytes.len() / 4;
        (0..4)
            .map(|i| {
                RegionData::new(
                    &format!("img-out{i}"),
                    bytes[i * stripe..(i + 1) * stripe].to_vec(),
                )
            })
            .collect()
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let size = self.size;
        let mut out_row = vec![0u32; size];
        // The datapath keeps one 64-byte line register (present in both
        // the baseline and shielded designs), so consecutive gathers
        // along the transform's path coalesce into chunk-sized reads —
        // "affine accesses data at consistent chunks of 64B" (§6.2.4).
        let mut line: Option<(u64, Vec<u8>)> = None;
        for y in 0..size {
            for (x, out) in out_row.iter_mut().enumerate() {
                *out = match self.map(x, y) {
                    Some((sx, sy)) => {
                        let addr = SRC_BASE + ((sy * size + sx) * 4) as u64;
                        let chunk_addr = addr & !63;
                        if line.as_ref().map(|(a, _)| *a) != Some(chunk_addr) {
                            let data = bus.read(chunk_addr, 64, AccessMode::Streaming)?;
                            line = Some((chunk_addr, data));
                        }
                        let (_, data) = line.as_ref().expect("just filled");
                        let off = (addr - chunk_addr) as usize;
                        u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"))
                    }
                    None => 0,
                };
            }
            bus.compute(size as u64 / PIXELS_PER_CYCLE);
            bus.write(
                DST_BASE + (y * size * 4) as u64,
                &u32s_to_bytes(&out_row),
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
    fn transform_is_correct_both_ways() {
        let pool = WorkerPool::new(1);
        let mut a = AffineTransform::new(64, 3);
        assert!(run_baseline(&mut a).unwrap().outputs_verified);
        let mut a = AffineTransform::new(64, 3);
        assert!(
            run_shielded_parallel(&mut a, &CryptoProfile::AES128_16X, 9, &pool)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn identity_matrix_is_identity() {
        let mut a = AffineTransform::new(64, 1);
        a.matrix = AffineMatrix {
            a: 1 << 16,
            b: 0,
            tx: 0,
            c: 0,
            d: 1 << 16,
            ty: 0,
        };
        assert_eq!(a.golden(), a.src);
    }

    #[test]
    fn out_of_bounds_maps_to_zero() {
        let mut a = AffineTransform::new(64, 1);
        // Huge translation pushes every source lookup out of bounds.
        a.matrix = AffineMatrix {
            a: 1 << 16,
            b: 0,
            tx: 10_000,
            c: 0,
            d: 1 << 16,
            ty: 0,
        };
        assert!(a.golden().iter().all(|&p| p == 0));
    }

    #[test]
    fn config_matches_paper_layout() {
        let a = AffineTransform::new(128, 0);
        let cfg = a.shield_config(&CryptoProfile::AES128_16X);
        assert_eq!(cfg.regions.len(), 12);
        assert!(cfg.regions.iter().all(|r| r.engine_set.chunk_size == 64));
        assert!(cfg.regions.iter().all(|r| !r.engine_set.counters));
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn bad_size_rejected() {
        let _ = AffineTransform::new(100, 0);
    }
}
