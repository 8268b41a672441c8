//! Bitcoin mining — the register-only workload of Fig. 6.
//!
//! "Bitcoin operates on small data (a 76 byte block header) and only
//! outputs a 4 byte nonce. We optimize for area by simply leveraging the
//! register interface, with one AES and one HMAC engine, to secure
//! communication. Because Bitcoin performs significant computation for
//! each input, we observe almost no overheads."
//!
//! The kernel performs a real SHA-256d search: it appends candidate
//! nonces to the header and double-hashes until the digest has the
//! requested number of leading zero bits.

use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{RegisterInterfaceConfig, ShieldConfig};
use shef_core::ShefError;
use shef_crypto::sha2::Sha256;

use crate::{workload_bytes, Accelerator, CryptoProfile, RegionData};

/// Block-header length (Bitcoin header minus the nonce field).
pub const HEADER_BYTES: usize = 76;
/// Register holding the found nonce after the run.
pub const NONCE_REG: usize = 10;
/// Register holding the "found" flag.
pub const FOUND_REG: usize = 11;
/// Cycles per hash attempt: three SHA-256 compressions at 64
/// cycles each (80-byte message = 2 blocks, plus the second hash).
pub const CYCLES_PER_HASH: u64 = 192;

/// The mining accelerator.
#[derive(Debug, Clone)]
pub struct Bitcoin {
    header: [u8; HEADER_BYTES],
    difficulty_bits: u32,
}

/// Computes SHA-256d over `header || nonce`.
#[must_use]
pub fn sha256d(header: &[u8; HEADER_BYTES], nonce: u32) -> [u8; 32] {
    let mut message = [0u8; HEADER_BYTES + 4];
    message[..HEADER_BYTES].copy_from_slice(header);
    message[HEADER_BYTES..].copy_from_slice(&nonce.to_le_bytes());
    Sha256::digest(&Sha256::digest(&message))
}

/// Counts leading zero bits of a digest.
#[must_use]
pub fn leading_zero_bits(digest: &[u8; 32]) -> u32 {
    let mut zeros = 0u32;
    for byte in digest {
        if *byte == 0 {
            zeros += 8;
        } else {
            zeros += byte.leading_zeros();
            break;
        }
    }
    zeros
}

impl Bitcoin {
    /// Creates a miner for a synthetic block header.
    ///
    /// `difficulty_bits` is the required number of leading zero bits.
    /// The paper mines at difficulty 24; tests use smaller values so the
    /// (real) search stays fast, and the cycle model scales identically.
    ///
    /// # Panics
    ///
    /// Panics if `difficulty_bits` exceeds 28 (the search would not
    /// terminate in reasonable simulation time).
    #[must_use]
    pub fn new(difficulty_bits: u32, seed: u64) -> Self {
        assert!(
            difficulty_bits <= 28,
            "difficulty above 28 bits is impractical in simulation"
        );
        let header: [u8; HEADER_BYTES] = workload_bytes(seed.wrapping_add(900), HEADER_BYTES)
            .try_into()
            .expect("fixed length");
        Bitcoin {
            header,
            difficulty_bits,
        }
    }

    /// The target difficulty.
    #[must_use]
    pub fn difficulty_bits(&self) -> u32 {
        self.difficulty_bits
    }

    fn search(&self) -> (u32, u64) {
        let mut tries = 0u64;
        let mut nonce = 0u32;
        loop {
            tries += 1;
            if leading_zero_bits(&sha256d(&self.header, nonce)) >= self.difficulty_bits {
                return (nonce, tries);
            }
            nonce = nonce.wrapping_add(1);
        }
    }
}

impl Accelerator for Bitcoin {
    fn id(&self) -> &str {
        "bitcoin"
    }

    fn shield_config(&self, _profile: &CryptoProfile) -> ShieldConfig {
        // Register interface only: no memory regions at all (Table 3
        // reports 0 % BRAM for Bitcoin).
        ShieldConfig::builder()
            .register_interface(RegisterInterfaceConfig {
                num_registers: 16,
                hide_addresses: false,
            })
            .build()
            .expect("bitcoin config is valid")
    }

    fn inputs(&self) -> Vec<RegionData> {
        Vec::new()
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        Vec::new()
    }

    fn host_pre(&self) -> Vec<(usize, u64)> {
        // Header packed into registers 0..9, 8 bytes each (last word
        // carries 4 real bytes).
        let mut padded = [0u8; 80];
        padded[..HEADER_BYTES].copy_from_slice(&self.header);
        padded
            .chunks_exact(8)
            .enumerate()
            .map(|(i, c)| (i, u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect()
    }

    fn host_post(
        &self,
        read_reg: &mut dyn FnMut(usize) -> Result<u64, ShefError>,
    ) -> Result<bool, ShefError> {
        let found = read_reg(FOUND_REG)?;
        let nonce = read_reg(NONCE_REG)? as u32;
        if found != 1 {
            return Ok(false);
        }
        Ok(leading_zero_bits(&sha256d(&self.header, nonce)) >= self.difficulty_bits)
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        // Read the header back out of the (plaintext-side) registers.
        let mut packed = [0u8; 80];
        for i in 0..10 {
            packed[i * 8..(i + 1) * 8].copy_from_slice(&bus.reg_read(i).to_le_bytes());
        }
        let mut header = [0u8; HEADER_BYTES];
        header.copy_from_slice(&packed[..HEADER_BYTES]);
        debug_assert_eq!(
            header, self.header,
            "register channel must deliver the header"
        );
        let (nonce, tries) = self.search();
        bus.compute(tries * CYCLES_PER_HASH);
        bus.reg_write(NONCE_REG, nonce as u64);
        bus.reg_write(FOUND_REG, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_baseline, run_shielded};
    use shef_core::shield::WorkerPool;

    #[test]
    fn mines_a_valid_nonce_both_ways() {
        let pool = WorkerPool::new(1);
        let mut b = Bitcoin::new(10, 3);
        assert!(run_baseline(&mut b).unwrap().outputs_verified);
        let mut b = Bitcoin::new(10, 3);
        assert!(
            run_shielded(&mut b, &CryptoProfile::AES128_16X, 4, &pool, None)
                .unwrap()
                .outputs_verified
        );
    }

    #[test]
    fn overhead_is_negligible() {
        let pool = WorkerPool::new(1);
        // Fig. 6: Bitcoin ≈ 1.0× across all profiles.
        let mut b = Bitcoin::new(12, 3);
        let base = run_baseline(&mut b).unwrap();
        let mut b = Bitcoin::new(12, 3);
        let shielded = run_shielded(&mut b, &CryptoProfile::AES256_4X, 4, &pool, None).unwrap();
        let ratio = shielded.cycles.0 as f64 / base.cycles.0 as f64;
        assert!(ratio < 1.05, "bitcoin overhead should be ~1.0, got {ratio}");
    }

    #[test]
    fn leading_zero_bit_counting() {
        let mut digest = [0xffu8; 32];
        assert_eq!(leading_zero_bits(&digest), 0);
        digest[0] = 0;
        digest[1] = 0x0f;
        assert_eq!(leading_zero_bits(&digest), 12);
        assert_eq!(leading_zero_bits(&[0u8; 32]), 256);
    }

    #[test]
    fn difficulty_determines_work() {
        let easy = Bitcoin::new(4, 1).search().1;
        let hard = Bitcoin::new(12, 1).search().1;
        assert!(hard >= easy);
    }

    #[test]
    #[should_panic(expected = "impractical")]
    fn absurd_difficulty_rejected() {
        let _ = Bitcoin::new(29, 0);
    }
}
