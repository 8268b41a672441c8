//! The ShEF evaluation accelerators (§6.2).
//!
//! Every workload of the paper's evaluation is modelled here as an
//! [`Accelerator`]: a golden-model computation plus the memory/register
//! traffic it generates, written once against
//! [`shef_core::shield::bus::MemoryBus`] so the same kernel runs both
//! shielded and as the insecure baseline.
//!
//! | Accelerator | Paper workload | Pattern |
//! |---|---|---|
//! | [`vecadd::VectorAdd`] | Fig. 5 microbenchmark | streaming |
//! | [`matmul::MatMul`] | §6.2.2 microbenchmark | streaming + reuse |
//! | [`conv::Convolution`] | Xilinx CNN conv layer | batched streaming |
//! | [`digitrec::DigitRecognition`] | Rosetta MNIST BNN | streaming |
//! | [`affine::AffineTransform`] | Xilinx vision kernel | random access |
//! | [`dnnweaver::DnnWeaver`] | DNNWeaver LeNet | streaming + RMW |
//! | [`bitcoin::Bitcoin`] | SHA-256d miner | register-only |
//! | [`sdp::SdpStore`] | SDP GDPR storage node (§6.2.3) | line-rate KV |
//!
//! The [`harness`] module provisions inputs, runs a kernel shielded and
//! unshielded, verifies outputs, and reports modelled execution time —
//! the machinery behind every table and figure regenerator in
//! `shef-bench`:
//!
//! ```
//! use shef_accel::harness::run_shielded;
//! use shef_accel::vecadd::VectorAdd;
//! use shef_accel::CryptoProfile;
//! use shef_core::shield::WorkerPool;
//!
//! let mut accel = VectorAdd::new(2048, 1); // one 2 KB stripe per vector
//! let pool = WorkerPool::new(1); // one lane: the serial Shield
//! let report = run_shielded(&mut accel, &CryptoProfile::AES128_16X, 1, &pool, None)
//!     .expect("runs");
//! assert!(report.outputs_verified, "shielded output matches the golden model");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod bitcoin;
pub mod conv;
pub mod digitrec;
pub mod dnnweaver;
pub mod harness;
pub mod matmul;
pub mod sdp;
pub mod vecadd;

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{EngineSetConfig, MemRange, ShieldConfig};
use shef_core::ShefError;
use shef_crypto::aes::{AesKeySize, SBoxParallelism};
use shef_crypto::authenc::MacAlgorithm;

/// The crypto-configuration axis swept by Fig. 5, Fig. 6 and Table 2:
/// AES key size, S-box parallelism, and the MAC engine family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoProfile {
    /// AES key size.
    pub key_size: AesKeySize,
    /// S-box duplication factor.
    pub sbox: SBoxParallelism,
    /// MAC family (HMAC default; PMAC for the optimized variants).
    pub mac: MacAlgorithm,
}

impl CryptoProfile {
    /// `AES-128/16x` with HMAC — the fastest standard profile.
    pub const AES128_16X: CryptoProfile = CryptoProfile {
        key_size: AesKeySize::Aes128,
        sbox: SBoxParallelism::X16,
        mac: MacAlgorithm::HmacSha256,
    };
    /// `AES-256/16x` with HMAC.
    pub const AES256_16X: CryptoProfile = CryptoProfile {
        key_size: AesKeySize::Aes256,
        sbox: SBoxParallelism::X16,
        mac: MacAlgorithm::HmacSha256,
    };
    /// `AES-128/4x` with HMAC.
    pub const AES128_4X: CryptoProfile = CryptoProfile {
        key_size: AesKeySize::Aes128,
        sbox: SBoxParallelism::X4,
        mac: MacAlgorithm::HmacSha256,
    };
    /// `AES-256/4x` with HMAC.
    pub const AES256_4X: CryptoProfile = CryptoProfile {
        key_size: AesKeySize::Aes256,
        sbox: SBoxParallelism::X4,
        mac: MacAlgorithm::HmacSha256,
    };
    /// `AES-128/16x` with PMAC — the DNNWeaver optimization of §6.2.4.
    pub const AES128_16X_PMAC: CryptoProfile = CryptoProfile {
        key_size: AesKeySize::Aes128,
        sbox: SBoxParallelism::X16,
        mac: MacAlgorithm::PmacAes,
    };

    /// The four standard Fig. 6 profiles, in the figure's legend order.
    #[must_use]
    pub fn fig6_profiles() -> [(&'static str, CryptoProfile); 4] {
        [
            ("AES-128/16x", Self::AES128_16X),
            ("AES-256/16x", Self::AES256_16X),
            ("AES-128/4x", Self::AES128_4X),
            ("AES-256/4x", Self::AES256_4X),
        ]
    }
}

/// Plaintext contents of one named region (inputs to provision, or
/// expected outputs to verify).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionData {
    /// Region name from the Shield configuration.
    pub region: String,
    /// Byte offset from the region base (must be chunk-aligned).
    pub offset: u64,
    /// Plaintext bytes, starting at `offset`.
    pub data: Vec<u8>,
}

impl RegionData {
    /// Data starting at the region base.
    #[must_use]
    pub fn new(region: &str, data: Vec<u8>) -> Self {
        RegionData {
            region: region.to_owned(),
            offset: 0,
            data,
        }
    }

    /// Data starting at a chunk-aligned `offset` inside the region.
    #[must_use]
    pub fn at(region: &str, offset: u64, data: Vec<u8>) -> Self {
        RegionData {
            region: region.to_owned(),
            offset,
            data,
        }
    }
}

/// A modelled FPGA accelerator: golden computation + traffic shape.
pub trait Accelerator {
    /// Stable identifier (matches the paper's benchmark names).
    fn id(&self) -> &str;

    /// The Shield configuration the IP Vendor would compile for this
    /// accelerator under the given crypto profile (§6.2.4 choices).
    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig;

    /// Plaintext input regions the Data Owner provisions before launch.
    fn inputs(&self) -> Vec<RegionData>;

    /// Expected plaintext output-region contents (golden model). Output
    /// regions named here must be write-once (epoch 0) so the Data
    /// Owner can verify them after readback.
    fn expected_outputs(&self) -> Vec<RegionData>;

    /// Register values the host writes before launch (index, value).
    fn host_pre(&self) -> Vec<(usize, u64)> {
        Vec::new()
    }

    /// Host-side check of result registers after the run.
    ///
    /// # Errors
    ///
    /// Propagates register-channel errors.
    fn host_post(
        &self,
        _read_reg: &mut dyn FnMut(usize) -> Result<u64, ShefError>,
    ) -> Result<bool, ShefError> {
        Ok(true)
    }

    /// Executes the kernel against a memory bus.
    ///
    /// # Errors
    ///
    /// Propagates bus errors (unmapped addresses, integrity failures).
    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError>;
}

/// Adds `stripes` equal regions named `prefix0..prefixN` covering
/// `[base, base + total_len)`, one engine set each — the paper's way of
/// scaling bandwidth ("partitioning the address space to use multiple
/// engine sets").
///
/// # Panics
///
/// Panics if `total_len` is not divisible by `stripes`.
#[must_use]
pub fn stripe_regions(
    mut builder: shef_core::shield::config::ShieldConfigBuilder,
    prefix: &str,
    base: u64,
    total_len: u64,
    stripes: usize,
    engine_set: &EngineSetConfig,
) -> shef_core::shield::config::ShieldConfigBuilder {
    assert_eq!(
        total_len % stripes as u64,
        0,
        "stripe length must divide evenly"
    );
    let stripe_len = total_len / stripes as u64;
    for i in 0..stripes {
        builder = builder.region(
            &format!("{prefix}{i}"),
            MemRange::new(base + i as u64 * stripe_len, stripe_len),
            engine_set.clone(),
        );
    }
    builder
}

/// Applies a crypto profile to an engine-set template.
#[must_use]
pub fn with_profile(mut es: EngineSetConfig, profile: &CryptoProfile) -> EngineSetConfig {
    es.key_size = profile.key_size;
    es.sbox = profile.sbox;
    es.mac = profile.mac;
    es
}

/// Deterministic pseudo-random byte generator for workload inputs.
#[must_use]
pub fn workload_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = shef_crypto::drbg::HmacDrbg::from_seed(&seed.to_le_bytes());
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// Little-endian u32 view helpers used by the integer golden models.
#[must_use]
pub fn bytes_to_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

/// Inverse of [`bytes_to_u32s`].
#[must_use]
pub fn u32s_to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_constants_are_distinct() {
        let profiles = CryptoProfile::fig6_profiles();
        for (i, (_, a)) in profiles.iter().enumerate() {
            for (_, b) in profiles.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn striping_builds_disjoint_regions() {
        let es = EngineSetConfig::default();
        let builder = stripe_regions(ShieldConfig::builder(), "in", 0, 4096 * 4, 4, &es);
        let cfg = builder.build().unwrap();
        assert_eq!(cfg.regions.len(), 4);
        assert_eq!(cfg.regions[0].name, "in0");
        assert_eq!(cfg.regions[3].range.start, 4096 * 3);
    }

    #[test]
    fn u32_round_trip() {
        let words = vec![1u32, 0xdead_beef, u32::MAX];
        assert_eq!(bytes_to_u32s(&u32s_to_bytes(&words)), words);
    }

    #[test]
    fn workload_bytes_deterministic() {
        assert_eq!(workload_bytes(7, 100), workload_bytes(7, 100));
        assert_ne!(workload_bytes(7, 100), workload_bytes(8, 100));
    }

    #[test]
    fn with_profile_overrides_crypto_fields() {
        let es = with_profile(EngineSetConfig::default(), &CryptoProfile::AES256_4X);
        assert_eq!(es.key_size, AesKeySize::Aes256);
        assert_eq!(es.sbox, SBoxParallelism::X4);
        assert_eq!(es.mac, MacAlgorithm::HmacSha256);
    }
}
