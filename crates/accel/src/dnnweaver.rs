//! DNNWeaver running LeNet — the mixed-pattern workload of Fig. 6.
//!
//! "DNNWeaver performs both streaming reads for weights and arbitrary
//! accesses for feature maps. Weights are only read in large chunks,
//! while feature maps require multiple reads and writes for small
//! chunks. … The weights engine set uses a large C_mem of 4KB, and 4 AES
//! and 1 HMAC engine with total 128KB buffer and no integrity counters.
//! The feature map engine set uses a smaller C_mem value of 64B, and
//! similarly 4 AES and 1 HMAC engine with total 64KB of buffer. As the
//! feature maps cover approximately 1MB of memory, 16KB of on-chip
//! storage is used for integrity counters."
//!
//! The paper's headline bottleneck lives here: "overheads are primarily
//! due to DNNWeaver waiting for long HMAC computations for large 4KB
//! chunks for weights before issuing more bursts" — weight reads are
//! **blocking** — and §6.2.4's fix swaps the weight-set HMAC for 4 PMAC
//! engines, cutting overhead from 3.20× to 2.31×.

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{AccessMode, EngineSetConfig, MemRange, ShieldConfig};
use shef_core::ShefError;
use shef_crypto::authenc::MacAlgorithm;

use crate::{
    bytes_to_u32s, u32s_to_bytes, with_profile, workload_bytes, Accelerator, CryptoProfile,
    RegionData,
};

const WEIGHTS_BASE: u64 = 0;
const FMAP_BASE: u64 = 1 << 30;
const RESULT_BASE: u64 = 2 << 30;
/// DNNWeaver's modest MAC array.
const MACS_PER_CYCLE: u64 = 64;

// LeNet-5 shape on a 28×28 input.
const IN_HW: usize = 28;
const C1_FILTERS: usize = 6;
const C1_K: usize = 5;
const C1_OUT_HW: usize = IN_HW - C1_K + 1; // 24
const P1_HW: usize = C1_OUT_HW / 2; // 12
const C2_FILTERS: usize = 16;
const C2_K: usize = 5;
const C2_OUT_HW: usize = P1_HW - C2_K + 1; // 8
const P2_HW: usize = C2_OUT_HW / 2; // 4
const FC1_IN: usize = C2_FILTERS * P2_HW * P2_HW; // 256
const FC1_OUT: usize = 120;
const FC2_OUT: usize = 84;
const FC3_OUT: usize = 10;

const C1_W: usize = C1_FILTERS * C1_K * C1_K;
const C2_W: usize = C2_FILTERS * C1_FILTERS * C2_K * C2_K;
const FC1_W: usize = FC1_IN * FC1_OUT;
const FC2_W: usize = FC1_OUT * FC2_OUT;
const FC3_W: usize = FC2_OUT * FC3_OUT;
/// Total weight words for the network.
pub const TOTAL_WEIGHT_WORDS: usize = C1_W + C2_W + FC1_W + FC2_W + FC3_W;

// Feature-map region layout (word offsets).
const FM_INPUT: usize = 0;
const FM_ACT1: usize = 1024;
const FM_POOL1: usize = FM_ACT1 + C1_FILTERS * C1_OUT_HW * C1_OUT_HW + 256;
const FM_ACT2: usize = FM_POOL1 + C1_FILTERS * P1_HW * P1_HW + 256;
const FM_POOL2: usize = FM_ACT2 + C2_FILTERS * C2_OUT_HW * C2_OUT_HW + 256;
const FM_FC1: usize = FM_POOL2 + FC1_IN + 256;
const FM_FC2: usize = FM_FC1 + FC1_OUT + 256;

/// The DNNWeaver/LeNet accelerator.
#[derive(Debug, Clone)]
pub struct DnnWeaver {
    batch: usize,
    weights: Vec<i32>,
    images: Vec<Vec<i32>>,
    /// Use PMAC engines on the weight set (§6.2.4 optimization).
    pub pmac_weights: bool,
    /// Protect feature-map freshness with a Bonsai Merkle Tree instead
    /// of on-chip counters — the §5.2.2 baseline, here wired into a
    /// real accelerator so the trade is measurable end to end.
    pub merkle_fmap: bool,
}

fn quantize(words: Vec<u32>, range: i32) -> Vec<i32> {
    words
        .iter()
        .map(|w| (*w % (2 * range as u32)) as i32 - range)
        .collect()
}

impl DnnWeaver {
    /// Creates a LeNet inference over `batch` synthetic images.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn new(batch: usize, seed: u64) -> Self {
        assert!(batch > 0, "batch must be positive");
        let weights = quantize(
            bytes_to_u32s(&workload_bytes(
                seed.wrapping_add(501),
                TOTAL_WEIGHT_WORDS * 4,
            )),
            8,
        );
        let images = (0..batch)
            .map(|i| {
                quantize(
                    bytes_to_u32s(&workload_bytes(
                        seed.wrapping_add(600 + i as u64),
                        IN_HW * IN_HW * 4,
                    )),
                    64,
                )
            })
            .collect();
        DnnWeaver {
            batch,
            weights,
            images,
            pmac_weights: false,
            merkle_fmap: false,
        }
    }

    /// Enables the PMAC weight-set variant of §6.2.4.
    #[must_use]
    pub fn with_pmac_weights(mut self) -> Self {
        self.pmac_weights = true;
        self
    }

    /// Swaps the feature-map replay defence from on-chip counters to a
    /// DRAM-resident Bonsai Merkle Tree (16 KB verified-node cache).
    #[must_use]
    pub fn with_merkle_fmap(mut self) -> Self {
        self.merkle_fmap = true;
        self
    }

    fn weight_slices(&self) -> [(usize, usize); 5] {
        let mut off = 0;
        let mut out = [(0usize, 0usize); 5];
        for (i, len) in [C1_W, C2_W, FC1_W, FC2_W, FC3_W].iter().enumerate() {
            out[i] = (off, *len);
            off += len;
        }
        out
    }

    fn forward(&self, image: &[i32]) -> Vec<i32> {
        let slices = self.weight_slices();
        let w = |i: usize| &self.weights[slices[i].0..slices[i].0 + slices[i].1];
        // conv1 (valid) + relu.
        let mut act1 = vec![0i32; C1_FILTERS * C1_OUT_HW * C1_OUT_HW];
        for f in 0..C1_FILTERS {
            for y in 0..C1_OUT_HW {
                for x in 0..C1_OUT_HW {
                    let mut acc = 0i32;
                    for ky in 0..C1_K {
                        for kx in 0..C1_K {
                            acc = acc.wrapping_add(
                                image[(y + ky) * IN_HW + (x + kx)]
                                    .wrapping_mul(w(0)[(f * C1_K + ky) * C1_K + kx]),
                            );
                        }
                    }
                    act1[(f * C1_OUT_HW + y) * C1_OUT_HW + x] = acc.max(0);
                }
            }
        }
        // 2×2 max pool.
        let mut pool1 = vec![0i32; C1_FILTERS * P1_HW * P1_HW];
        for f in 0..C1_FILTERS {
            for y in 0..P1_HW {
                for x in 0..P1_HW {
                    let mut m = i32::MIN;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            m = m.max(act1[(f * C1_OUT_HW + 2 * y + dy) * C1_OUT_HW + 2 * x + dx]);
                        }
                    }
                    pool1[(f * P1_HW + y) * P1_HW + x] = m;
                }
            }
        }
        // conv2 + relu.
        let mut act2 = vec![0i32; C2_FILTERS * C2_OUT_HW * C2_OUT_HW];
        for f in 0..C2_FILTERS {
            for y in 0..C2_OUT_HW {
                for x in 0..C2_OUT_HW {
                    let mut acc = 0i32;
                    for c in 0..C1_FILTERS {
                        for ky in 0..C2_K {
                            for kx in 0..C2_K {
                                let wi = ((f * C1_FILTERS + c) * C2_K + ky) * C2_K + kx;
                                acc = acc.wrapping_add(
                                    pool1[(c * P1_HW + y + ky) * P1_HW + (x + kx)]
                                        .wrapping_mul(w(1)[wi]),
                                );
                            }
                        }
                    }
                    act2[(f * C2_OUT_HW + y) * C2_OUT_HW + x] = acc.max(0);
                }
            }
        }
        // pool2.
        let mut pool2 = vec![0i32; FC1_IN];
        for f in 0..C2_FILTERS {
            for y in 0..P2_HW {
                for x in 0..P2_HW {
                    let mut m = i32::MIN;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            m = m.max(act2[(f * C2_OUT_HW + 2 * y + dy) * C2_OUT_HW + 2 * x + dx]);
                        }
                    }
                    pool2[(f * P2_HW + y) * P2_HW + x] = m;
                }
            }
        }
        // Fully connected stack.
        let fc = |input: &[i32], weights: &[i32], n_out: usize, relu: bool| -> Vec<i32> {
            (0..n_out)
                .map(|o| {
                    let mut acc = 0i32;
                    for (i, v) in input.iter().enumerate() {
                        acc = acc.wrapping_add(v.wrapping_mul(weights[o * input.len() + i]));
                    }
                    if relu {
                        acc.max(0)
                    } else {
                        acc
                    }
                })
                .collect()
        };
        let fc1 = fc(&pool2, w(2), FC1_OUT, true);
        let fc2 = fc(&fc1, w(3), FC2_OUT, true);
        fc(&fc2, w(4), FC3_OUT, false)
    }

    fn weights_bytes_padded(&self) -> usize {
        (TOTAL_WEIGHT_WORDS * 4).div_ceil(4096) * 4096
    }

    fn result_bytes(&self) -> usize {
        (self.batch * FC3_OUT * 4).div_ceil(512) * 512
    }
}

impl Accelerator for DnnWeaver {
    fn id(&self) -> &str {
        "dnnweaver"
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
        // Weight set: C=4KB, 4 AES + 1 HMAC (or 4 PMAC), 128 KB buffer,
        // no counters.
        let weights_mac = if self.pmac_weights {
            (MacAlgorithm::PmacAes, 4)
        } else {
            (profile.mac, 1)
        };
        let weights_es = EngineSetConfig {
            aes_engines: 4,
            sbox: profile.sbox,
            key_size: profile.key_size,
            mac: weights_mac.0,
            mac_engines: weights_mac.1,
            chunk_size: 4096,
            buffer_bytes: 128 * 1024,
            counters: false,
            zero_fill_writes: false,
            merkle: None,
        };
        // Feature-map set: C=64B, 4 AES + 1 HMAC, 64 KB buffer, and a
        // replay defence — on-chip counters by default, or the Merkle
        // baseline when `merkle_fmap` is set.
        let fmap_es = with_profile(
            EngineSetConfig {
                aes_engines: 4,
                mac_engines: 1,
                chunk_size: 64,
                buffer_bytes: 64 * 1024,
                counters: !self.merkle_fmap,
                merkle: self.merkle_fmap.then_some({
                    shef_core::shield::MerkleConfig {
                        arity: 8,
                        node_cache_bytes: 16 * 1024,
                    }
                }),
                // Activations are fully written before being read, so
                // write misses zero-fill instead of fetching garbage.
                zero_fill_writes: true,
                ..EngineSetConfig::default()
            },
            profile,
        );
        let result_es = with_profile(
            EngineSetConfig {
                chunk_size: 512,
                zero_fill_writes: true,
                ..EngineSetConfig::default()
            },
            profile,
        );
        ShieldConfig::builder()
            .region(
                "weights",
                MemRange::new(WEIGHTS_BASE, self.weights_bytes_padded() as u64),
                weights_es,
            )
            .region("fmap", MemRange::new(FMAP_BASE, 1 << 20), fmap_es)
            .region(
                "result",
                MemRange::new(RESULT_BASE, self.result_bytes() as u64),
                result_es,
            )
            .build()
            .expect("dnnweaver config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        let mut weight_bytes =
            u32s_to_bytes(&self.weights.iter().map(|w| *w as u32).collect::<Vec<_>>());
        weight_bytes.resize(self.weights_bytes_padded(), 0);
        // Feature-map region starts with the input images back to back at
        // FM_INPUT (one image resident at a time; DNNWeaver reloads per
        // inference).
        vec![RegionData::new("weights", weight_bytes)]
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        let mut out = vec![0u8; self.result_bytes()];
        for (b, image) in self.images.iter().enumerate() {
            let scores = self.forward(image);
            let bytes = u32s_to_bytes(&scores.iter().map(|s| *s as u32).collect::<Vec<_>>());
            out[b * FC3_OUT * 4..(b + 1) * FC3_OUT * 4].copy_from_slice(&bytes);
        }
        vec![RegionData::new("result", out)]
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let slices = self.weight_slices();
        let total_macs: u64 = (C1_FILTERS * C1_OUT_HW * C1_OUT_HW * C1_K * C1_K) as u64
            + (C2_FILTERS * C2_OUT_HW * C2_OUT_HW * C1_FILTERS * C2_K * C2_K) as u64
            + (FC1_W + FC2_W + FC3_W) as u64;
        let images = self.images.clone();
        for (b, image) in images.iter().enumerate() {
            // Load the image into the feature-map region (64 B traffic).
            let img_bytes = u32s_to_bytes(&image.iter().map(|v| *v as u32).collect::<Vec<_>>());
            bus.write(
                FMAP_BASE + (FM_INPUT * 4) as u64,
                &img_bytes,
                AccessMode::Streaming,
            )?;
            // Per layer: stream that layer's weights with BLOCKING 4 KB
            // reads (the DNNWeaver bottleneck), touch the feature maps.
            let fm_offsets = [FM_ACT1, FM_ACT2, FM_FC1, FM_FC2, FM_POOL2];
            for (layer, (w_off, w_len)) in slices.iter().enumerate() {
                let mut read = 0usize;
                let byte_off = w_off * 4;
                let byte_len = w_len * 4;
                while read < byte_len {
                    let take = 4096.min(byte_len - read);
                    let _ = bus.read(
                        WEIGHTS_BASE + (byte_off + read) as u64,
                        take,
                        AccessMode::Blocking,
                    )?;
                    read += take;
                }
                // Feature-map read-modify-write traffic for this layer.
                let fm_words = match layer {
                    0 => C1_FILTERS * C1_OUT_HW * C1_OUT_HW,
                    1 => C2_FILTERS * C2_OUT_HW * C2_OUT_HW,
                    2 => FC1_OUT,
                    3 => FC2_OUT,
                    _ => FC3_OUT,
                };
                let fm_base = FMAP_BASE + (fm_offsets[layer] * 4) as u64;
                let zeros = vec![0u8; fm_words * 4];
                bus.write(fm_base, &zeros, AccessMode::Streaming)?;
                let _ = bus.read(fm_base, fm_words * 4, AccessMode::Streaming)?;
            }
            bus.compute(total_macs / MACS_PER_CYCLE);
            // Real result from the golden network, written to the result
            // region.
            let scores = self.forward(image);
            let bytes = u32s_to_bytes(&scores.iter().map(|s| *s as u32).collect::<Vec<_>>());
            bus.write(
                RESULT_BASE + (b * FC3_OUT * 4) as u64,
                &bytes,
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
    fn lenet_shapes() {
        assert_eq!(C1_OUT_HW, 24);
        assert_eq!(P1_HW, 12);
        assert_eq!(C2_OUT_HW, 8);
        assert_eq!(FC1_IN, 256);
        assert_eq!(TOTAL_WEIGHT_WORDS, 150 + 2400 + 30720 + 10080 + 840);
    }

    #[test]
    fn inference_is_correct_both_ways() {
        let pool = WorkerPool::new(1);
        let mut d = DnnWeaver::new(1, 5);
        assert!(run_baseline(&mut d).unwrap().outputs_verified);
        let mut d = DnnWeaver::new(1, 5);
        assert!(
            run_shielded_parallel(&mut d, &CryptoProfile::AES128_16X, 8, &pool)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn pmac_variant_is_faster() {
        let pool = WorkerPool::new(1);
        // §6.2.4: swapping the weight-set HMAC for 4 PMAC engines lowers
        // the blocking-stall overhead.
        let mut hmac = DnnWeaver::new(2, 5);
        let hmac_report =
            run_shielded_parallel(&mut hmac, &CryptoProfile::AES128_16X, 8, &pool).unwrap();
        let mut pmac = DnnWeaver::new(2, 5).with_pmac_weights();
        let pmac_report =
            run_shielded_parallel(&mut pmac, &CryptoProfile::AES128_16X, 8, &pool).unwrap();
        assert!(
            pmac_report.cycles < hmac_report.cycles,
            "PMAC {} must beat HMAC {}",
            pmac_report.cycles,
            hmac_report.cycles
        );
    }

    #[test]
    fn forward_is_deterministic() {
        let d = DnnWeaver::new(1, 9);
        assert_eq!(d.forward(&d.images[0]), d.forward(&d.images[0]));
    }

    #[test]
    fn merkle_fmap_variant_is_correct_but_slower() {
        let pool = WorkerPool::new(1);
        // The §5.2.2 trade on a real accelerator: a Merkle-protected
        // feature map still computes the right answer, but pays tree
        // walks the on-chip counters avoid.
        let mut counters = DnnWeaver::new(1, 5);
        let counters_report =
            run_shielded_parallel(&mut counters, &CryptoProfile::AES128_16X, 8, &pool).unwrap();
        assert!(counters_report.outputs_verified);
        let mut merkle = DnnWeaver::new(1, 5).with_merkle_fmap();
        let merkle_report =
            run_shielded_parallel(&mut merkle, &CryptoProfile::AES128_16X, 8, &pool).unwrap();
        assert!(merkle_report.outputs_verified);
        assert!(
            merkle_report.cycles > counters_report.cycles,
            "Merkle fmap {} must cost more than counters {}",
            merkle_report.cycles,
            counters_report.cycles
        );
    }

    #[test]
    fn merkle_fmap_config_is_valid_and_tree_backed() {
        let d = DnnWeaver::new(1, 0).with_merkle_fmap();
        let cfg = d.shield_config(&CryptoProfile::AES128_16X);
        cfg.validate().unwrap();
        let fmap = cfg.regions.iter().find(|r| r.name == "fmap").unwrap();
        assert!(!fmap.engine_set.counters);
        assert!(fmap.engine_set.merkle.is_some());
    }

    #[test]
    fn config_matches_paper() {
        let d = DnnWeaver::new(1, 0);
        let cfg = d.shield_config(&CryptoProfile::AES128_16X);
        let weights = cfg.regions.iter().find(|r| r.name == "weights").unwrap();
        assert_eq!(weights.engine_set.chunk_size, 4096);
        assert_eq!(weights.engine_set.aes_engines, 4);
        assert_eq!(weights.engine_set.buffer_bytes, 128 * 1024);
        let fmap = cfg.regions.iter().find(|r| r.name == "fmap").unwrap();
        assert_eq!(fmap.engine_set.chunk_size, 64);
        assert!(fmap.engine_set.counters);
        assert_eq!(fmap.range.len, 1 << 20);
    }
}
