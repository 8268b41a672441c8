//! Digit recognition — the Rosetta MNIST workload of Fig. 6.
//!
//! Rosetta's digit recognition is a k-nearest-neighbour classifier over
//! bit-packed 196-byte digit images, with the training set baked into
//! on-chip ROM (part of the bitstream). Test images *stream in* and
//! labels *stream out* with no batching — hence the paper's
//! configuration: "2 engine sets for inputs and 1 engine set for outputs
//! with total 24KB and 12KB buffer, respectively, each with one AES and
//! HMAC engine … a large C_mem of 512 bytes" (overheads 1.85–3.15×).

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{AccessMode, EngineSetConfig, ShieldConfig};
use shef_core::ShefError;

use crate::{stripe_regions, with_profile, workload_bytes, Accelerator, CryptoProfile, RegionData};

const TEST_BASE: u64 = 0;
const LABEL_BASE: u64 = 1 << 30;
/// Bit-packed 28×28 digit: 49 u32 words.
pub const IMAGE_BYTES: usize = 196;
/// Twenty whole images per burst, so bursts never split an image.
const BURST: usize = IMAGE_BYTES * 20;
/// Training references compared per cycle by the parallel Hamming
/// array (the training set lives in on-chip ROM).
const PARALLEL_REFS: u64 = 64;

/// The digit-recognition accelerator (1-NN over Hamming distance).
#[derive(Debug, Clone)]
pub struct DigitRecognition {
    n_test: usize,
    n_train: usize,
    test: Vec<u8>,
    train: Vec<u8>,
    train_labels: Vec<u8>,
}

impl DigitRecognition {
    /// Creates a classifier with synthetic MNIST-shaped data.
    ///
    /// # Panics
    ///
    /// Panics if `n_test` is not a positive multiple of 32 or if
    /// `n_train` is zero. (Multiples of 32 keep the streaming regions
    /// chunk-aligned.)
    #[must_use]
    pub fn new(n_test: usize, n_train: usize, seed: u64) -> Self {
        assert!(
            n_test > 0 && n_test.is_multiple_of(32),
            "n_test must be a positive multiple of 32"
        );
        assert!(n_train > 0, "need at least one training image");
        let train = workload_bytes(seed.wrapping_add(1), n_train * IMAGE_BYTES);
        // Test images are noisy copies of random training images, so
        // nearest-neighbour has actual structure to find.
        let picks = workload_bytes(seed.wrapping_add(2), n_test * 8);
        let noise = workload_bytes(seed.wrapping_add(3), n_test * IMAGE_BYTES);
        let mut test = vec![0u8; n_test * IMAGE_BYTES];
        for t in 0..n_test {
            let pick = u64::from_le_bytes(picks[t * 8..(t + 1) * 8].try_into().expect("8 bytes"))
                as usize
                % n_train;
            for b in 0..IMAGE_BYTES {
                // Flip a sparse subset of bits as noise.
                let n = noise[t * IMAGE_BYTES + b];
                let flip = if n > 250 { 1u8 << (n % 8) } else { 0 };
                test[t * IMAGE_BYTES + b] = train[pick * IMAGE_BYTES + b] ^ flip;
            }
        }
        let train_labels: Vec<u8> = workload_bytes(seed.wrapping_add(4), n_train)
            .iter()
            .map(|b| b % 10)
            .collect();
        DigitRecognition {
            n_test,
            n_train,
            test,
            train,
            train_labels,
        }
    }

    fn classify(&self, image: &[u8]) -> u8 {
        let mut best = (u32::MAX, 0u8);
        for t in 0..self.n_train {
            let candidate = &self.train[t * IMAGE_BYTES..(t + 1) * IMAGE_BYTES];
            let dist: u32 = image
                .iter()
                .zip(candidate.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            if dist < best.0 {
                best = (dist, self.train_labels[t]);
            }
        }
        best.1
    }

    fn golden_labels(&self) -> Vec<u8> {
        (0..self.n_test)
            .map(|i| self.classify(&self.test[i * IMAGE_BYTES..(i + 1) * IMAGE_BYTES]))
            .collect()
    }

    fn test_bytes(&self) -> usize {
        self.n_test * IMAGE_BYTES
    }

    /// Output region: 4 bytes per label, padded to chunk alignment.
    fn label_bytes(&self) -> usize {
        let raw = self.n_test * 4;
        raw.div_ceil(512) * 512
    }
}

impl Accelerator for DigitRecognition {
    fn id(&self) -> &str {
        "digitrec"
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
        // Paper: 2 input sets (24 KB buffer total), 1 output set (12 KB),
        // C = 512 B, one AES + one HMAC each.
        let in_es = with_profile(
            EngineSetConfig {
                chunk_size: 512,
                buffer_bytes: 12 * 1024,
                ..EngineSetConfig::default()
            },
            profile,
        );
        let out_es = with_profile(
            EngineSetConfig {
                chunk_size: 512,
                buffer_bytes: 12 * 1024,
                zero_fill_writes: true,
                ..EngineSetConfig::default()
            },
            profile,
        );
        let test_len = (self.test_bytes() as u64).div_ceil(1024) * 1024;
        let mut builder = ShieldConfig::builder();
        builder = stripe_regions(builder, "digits", TEST_BASE, test_len, 2, &in_es);
        builder = builder.region(
            "labels",
            shef_core::shield::MemRange::new(LABEL_BASE, self.label_bytes() as u64),
            out_es,
        );
        builder.build().expect("digitrec config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        let test_len = self.test_bytes().div_ceil(1024) * 1024;
        let mut padded = self.test.clone();
        padded.resize(test_len, 0);
        let half = test_len / 2;
        vec![
            RegionData::new("digits0", padded[..half].to_vec()),
            RegionData::new("digits1", padded[half..].to_vec()),
        ]
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        let mut out = vec![0u8; self.label_bytes()];
        for (i, label) in self.golden_labels().iter().enumerate() {
            out[i * 4] = *label;
        }
        vec![RegionData::new("labels", out)]
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let total = self.test_bytes();
        let mut labels = vec![0u8; self.label_bytes()];
        let mut offset = 0usize;
        while offset < total {
            let take = BURST.min(total - offset);
            let burst = bus.read(TEST_BASE + offset as u64, take, AccessMode::Streaming)?;
            for (i, image) in burst.chunks_exact(IMAGE_BYTES).enumerate() {
                let global_idx = (offset + i * IMAGE_BYTES) / IMAGE_BYTES;
                if global_idx < self.n_test {
                    labels[global_idx * 4] = self.classify(image);
                }
                bus.compute((self.n_train as u64).div_ceil(PARALLEL_REFS));
            }
            offset += take;
        }
        bus.write(LABEL_BASE, &labels, AccessMode::Streaming)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_baseline, run_shielded};
    use shef_core::shield::WorkerPool;

    #[test]
    fn classification_is_consistent_both_ways() {
        let pool = WorkerPool::new(1);
        let mut d = DigitRecognition::new(32, 50, 7);
        assert!(run_baseline(&mut d).unwrap().outputs_verified);
        let mut d = DigitRecognition::new(32, 50, 7);
        assert!(
            run_shielded(&mut d, &CryptoProfile::AES256_16X, 5, &pool, None)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn noiseless_copy_classifies_to_source_label() {
        let d = DigitRecognition::new(32, 20, 1);
        // Classifying a training image itself returns its own label
        // (distance zero beats everything).
        for t in [0usize, 7, 19] {
            let img = &d.train[t * IMAGE_BYTES..(t + 1) * IMAGE_BYTES];
            // There may be duplicate-distance ties only if another image
            // is identical; with random data that has negligible odds.
            assert_eq!(d.classify(img), d.train_labels[t]);
        }
    }

    #[test]
    fn config_matches_paper_layout() {
        let d = DigitRecognition::new(64, 10, 0);
        let cfg = d.shield_config(&CryptoProfile::AES128_16X);
        assert_eq!(cfg.regions.len(), 3); // 2 in + 1 out
        let in_buf: usize = cfg
            .regions
            .iter()
            .filter(|r| r.name.starts_with("digits"))
            .map(|r| r.engine_set.buffer_bytes)
            .sum();
        assert_eq!(in_buf, 24 * 1024);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn bad_test_count_rejected() {
        let _ = DigitRecognition::new(30, 10, 0);
    }
}
