//! CNN convolution layer — the Xilinx reference workload of Fig. 6.
//!
//! "A convolutional layer from a neural network with an input size of
//! 27×27×96, a filter size of 5×5, and an output size of 27×27×256 with
//! 32-bit values … Convolution achieves high parallelism by streaming in
//! batches of feature maps and filters, and streaming out each output
//! feature map. We configure the Shield to match the high parallelism by
//! using 8 engine sets for input images and weights and 4 engine sets
//! for output filters, each with one AES and HMAC engine. We use a
//! buffer of 128KB in the read set and 64KB in the write set. We
//! configure C_mem to be 512 bytes."
//!
//! The datapath tiles output channels into groups and re-streams the
//! input feature maps once per group (standard output-stationary
//! dataflow), which is what keeps the workload memory-intensive enough
//! for the Shield to matter (paper overheads: 1.20–1.35×).

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{AccessMode, EngineSetConfig, ShieldConfig};
use shef_core::ShefError;

use crate::{
    bytes_to_u32s, stripe_regions, u32s_to_bytes, with_profile, workload_bytes, Accelerator,
    CryptoProfile, RegionData,
};

const IFMAP_BASE: u64 = 0;
const WEIGHTS_BASE: u64 = 1 << 30;
const OFMAP_BASE: u64 = 2 << 30;
const BURST: usize = 4096;
/// Systolic array width: MACs per cycle.
const MACS_PER_CYCLE: u64 = 24_576;
/// Output channels computed per input pass (on-chip accumulator tile).
const CHANNEL_TILE: usize = 128;

/// Convolution layer dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvDims {
    /// Input height/width.
    pub hw: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Filter height/width.
    pub k: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Batch size.
    pub batch: usize,
}

impl ConvDims {
    /// The paper's layer: 27×27×96 ⊗ 5×5 → 27×27×256 (same padding).
    #[must_use]
    pub fn paper() -> Self {
        ConvDims {
            hw: 27,
            in_ch: 96,
            k: 5,
            out_ch: 256,
            batch: 4,
        }
    }

    /// A small layer for fast tests.
    #[must_use]
    pub fn small() -> Self {
        ConvDims {
            hw: 8,
            in_ch: 4,
            k: 3,
            out_ch: 8,
            batch: 2,
        }
    }

    fn ifmap_words(&self) -> usize {
        self.batch * self.hw * self.hw * self.in_ch
    }

    fn weight_words(&self) -> usize {
        self.out_ch * self.in_ch * self.k * self.k
    }

    fn ofmap_words(&self) -> usize {
        self.batch * self.hw * self.hw * self.out_ch
    }

    fn macs(&self) -> u64 {
        self.ofmap_words() as u64 * (self.in_ch * self.k * self.k) as u64
    }
}

/// The convolution accelerator.
#[derive(Debug, Clone)]
pub struct Convolution {
    dims: ConvDims,
    ifmap: Vec<u32>,
    weights: Vec<u32>,
}

/// Pads a byte length up so it stripes evenly at chunk granularity.
fn pad_len(words: usize, stripes: u64, chunk: u64) -> u64 {
    let bytes = (words * 4) as u64;
    let quantum = stripes * chunk;
    bytes.div_ceil(quantum) * quantum
}

impl Convolution {
    /// Creates the layer with deterministic inputs.
    #[must_use]
    pub fn new(dims: ConvDims, seed: u64) -> Self {
        let ifmap = bytes_to_u32s(&workload_bytes(
            seed.wrapping_add(11),
            dims.ifmap_words() * 4,
        ))
        .iter()
        .map(|w| w % 256)
        .collect();
        let weights = bytes_to_u32s(&workload_bytes(
            seed.wrapping_add(22),
            dims.weight_words() * 4,
        ))
        .iter()
        .map(|w| w % 16)
        .collect();
        Convolution {
            dims,
            ifmap,
            weights,
        }
    }

    /// The layer's dimensions.
    #[must_use]
    pub fn dims(&self) -> ConvDims {
        self.dims
    }

    fn ifmap_at(&self, b: usize, y: isize, x: isize, c: usize) -> u32 {
        let hw = self.dims.hw as isize;
        if y < 0 || y >= hw || x < 0 || x >= hw {
            return 0; // same padding
        }
        let idx =
            ((b * self.dims.hw + y as usize) * self.dims.hw + x as usize) * self.dims.in_ch + c;
        self.ifmap[idx]
    }

    fn weight_at(&self, oc: usize, c: usize, ky: usize, kx: usize) -> u32 {
        let d = &self.dims;
        self.weights[((oc * d.in_ch + c) * d.k + ky) * d.k + kx]
    }

    fn golden(&self) -> Vec<u32> {
        let d = self.dims;
        let pad = (d.k / 2) as isize;
        let mut out = vec![0u32; d.ofmap_words()];
        for b in 0..d.batch {
            for y in 0..d.hw {
                for x in 0..d.hw {
                    for oc in 0..d.out_ch {
                        let mut acc = 0u32;
                        for ky in 0..d.k {
                            for kx in 0..d.k {
                                for c in 0..d.in_ch {
                                    let iy = y as isize + ky as isize - pad;
                                    let ix = x as isize + kx as isize - pad;
                                    acc = acc.wrapping_add(
                                        self.ifmap_at(b, iy, ix, c)
                                            .wrapping_mul(self.weight_at(oc, c, ky, kx)),
                                    );
                                }
                            }
                        }
                        out[((b * d.hw + y) * d.hw + x) * d.out_ch + oc] = acc;
                    }
                }
            }
        }
        out
    }
}

impl Accelerator for Convolution {
    fn id(&self) -> &str {
        "convolution"
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
        let d = self.dims;
        // Paper: 8 read sets (inputs + weights) with 128 KB total read
        // buffer, 4 write sets with 64 KB, C = 512 B.
        let read_es = with_profile(
            EngineSetConfig {
                chunk_size: 512,
                buffer_bytes: 16 * 1024, // × 8 sets = 128 KB
                ..EngineSetConfig::default()
            },
            profile,
        );
        let write_es = with_profile(
            EngineSetConfig {
                chunk_size: 512,
                buffer_bytes: 16 * 1024, // × 4 sets = 64 KB
                zero_fill_writes: true,
                ..EngineSetConfig::default()
            },
            profile,
        );
        let if_len = pad_len(d.ifmap_words(), 4, 512);
        let w_len = pad_len(d.weight_words(), 4, 512);
        let of_len = pad_len(d.ofmap_words(), 4, 512);
        let mut builder = ShieldConfig::builder();
        builder = stripe_regions(builder, "ifmap", IFMAP_BASE, if_len, 4, &read_es);
        builder = stripe_regions(builder, "weights", WEIGHTS_BASE, w_len, 4, &read_es);
        builder = stripe_regions(builder, "ofmap", OFMAP_BASE, of_len, 4, &write_es);
        builder.build().expect("conv config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        let d = self.dims;
        let if_len = pad_len(d.ifmap_words(), 4, 512) as usize;
        let w_len = pad_len(d.weight_words(), 4, 512) as usize;
        let mut ifmap_bytes = u32s_to_bytes(&self.ifmap);
        ifmap_bytes.resize(if_len, 0);
        let mut weight_bytes = u32s_to_bytes(&self.weights);
        weight_bytes.resize(w_len, 0);
        let mut out = Vec::new();
        for (i, part) in ifmap_bytes.chunks(if_len / 4).enumerate() {
            out.push(RegionData::new(&format!("ifmap{i}"), part.to_vec()));
        }
        for (i, part) in weight_bytes.chunks(w_len / 4).enumerate() {
            out.push(RegionData::new(&format!("weights{i}"), part.to_vec()));
        }
        out
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        let d = self.dims;
        let of_len = pad_len(d.ofmap_words(), 4, 512) as usize;
        let mut bytes = u32s_to_bytes(&self.golden());
        bytes.resize(of_len, 0);
        bytes
            .chunks(of_len / 4)
            .enumerate()
            .map(|(i, part)| RegionData::new(&format!("ofmap{i}"), part.to_vec()))
            .collect()
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let d = self.dims;
        let if_bytes = d.ifmap_words() * 4;
        let w_bytes = d.weight_words() * 4;
        let of_bytes = d.ofmap_words() * 4;
        let groups = d.out_ch.div_ceil(CHANNEL_TILE);
        // Output-stationary tiling: per channel group, stream the group's
        // weights once and re-stream the whole input feature map.
        let group_w_bytes = w_bytes / groups;
        for g in 0..groups {
            let mut offset = 0usize;
            while offset < group_w_bytes {
                let take = BURST.min(group_w_bytes - offset);
                let _ = bus.read(
                    WEIGHTS_BASE + (g * group_w_bytes + offset) as u64,
                    take,
                    AccessMode::Streaming,
                )?;
                offset += take;
            }
            let mut offset = 0usize;
            while offset < if_bytes {
                let take = BURST.min(if_bytes - offset);
                let _ = bus.read(IFMAP_BASE + offset as u64, take, AccessMode::Streaming)?;
                offset += take;
            }
            bus.compute(d.macs() / groups as u64 / MACS_PER_CYCLE);
        }
        // The functional result comes from the golden model (the traffic
        // above models the dataflow; recomputing 1.8 G MACs through the
        // byte-level bus would model nothing extra).
        let out_bytes = u32s_to_bytes(&self.golden());
        let mut offset = 0usize;
        while offset < of_bytes {
            let take = BURST.min(of_bytes - offset);
            bus.write(
                OFMAP_BASE + offset as u64,
                &out_bytes[offset..offset + take],
                AccessMode::Streaming,
            )?;
            offset += take;
        }
        bus.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_baseline, run_shielded_parallel};
    use shef_core::shield::WorkerPool;

    #[test]
    fn small_conv_is_correct_both_ways() {
        let pool = WorkerPool::new(1);
        let mut c = Convolution::new(ConvDims::small(), 4);
        assert!(run_baseline(&mut c).unwrap().outputs_verified);
        let mut c = Convolution::new(ConvDims::small(), 4);
        assert!(
            run_shielded_parallel(&mut c, &CryptoProfile::AES128_16X, 3, &pool)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn paper_dims_sizes() {
        let d = ConvDims::paper();
        assert_eq!(d.ifmap_words() * 4, 4 * 27 * 27 * 96 * 4);
        assert_eq!(d.weight_words() * 4, 256 * 96 * 5 * 5 * 4);
        assert_eq!(d.macs(), 4 * 27 * 27 * 256_u64 * (96 * 25));
    }

    #[test]
    fn config_matches_paper_layout() {
        let c = Convolution::new(ConvDims::small(), 0);
        let cfg = c.shield_config(&CryptoProfile::AES128_16X);
        // 8 read sets + 4 write sets.
        assert_eq!(cfg.regions.len(), 12);
        let read_buf: usize = cfg
            .regions
            .iter()
            .filter(|r| !r.name.starts_with("ofmap"))
            .map(|r| r.engine_set.buffer_bytes)
            .sum();
        assert_eq!(read_buf, 128 * 1024);
        let write_buf: usize = cfg
            .regions
            .iter()
            .filter(|r| r.name.starts_with("ofmap"))
            .map(|r| r.engine_set.buffer_bytes)
            .sum();
        assert_eq!(write_buf, 64 * 1024);
    }

    #[test]
    fn golden_same_padding_edges() {
        // A 1-channel identity filter reproduces the input.
        let dims = ConvDims {
            hw: 4,
            in_ch: 1,
            k: 3,
            out_ch: 1,
            batch: 1,
        };
        let mut c = Convolution::new(dims, 0);
        c.weights = vec![0, 0, 0, 0, 1, 0, 0, 0, 0]; // centre tap
        assert_eq!(c.golden(), c.ifmap);
    }
}
