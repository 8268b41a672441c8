//! HMAC-DRBG (NIST SP 800-90A) over SHA-256.
//!
//! Every key generated anywhere in the ShEF workspace — device keys,
//! attestation keys, bitstream keys, data encryption keys, nonces — comes
//! from an instance of this deterministic generator. Seeding each party
//! with a distinct label keeps whole-system experiments reproducible,
//! which matters for the benchmark harness.
//!
//! # Example
//!
//! ```
//! use shef_crypto::drbg::HmacDrbg;
//!
//! let mut rng = HmacDrbg::from_seed(b"ip-vendor");
//! let key_a = rng.generate_array::<32>();
//! let key_b = rng.generate_array::<32>();
//! assert_ne!(key_a, key_b);
//! ```

use crate::hmac::HmacSha256;

/// A deterministic random bit generator (HMAC-DRBG, SHA-256).
///
/// The generator keeps the HMAC of its current key `K` with both pads
/// absorbed; `K` changes only in `update`, so each 32 output bytes cost
/// two SHA-256 compressions instead of four.
#[derive(Clone)]
pub struct HmacDrbg {
    /// HMAC under the current `K`.
    mac: HmacSha256,
    value: [u8; 32],
    reseed_counter: u64,
}

impl core::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HmacDrbg")
            .field("reseed_counter", &self.reseed_counter)
            .finish_non_exhaustive()
    }
}

impl HmacDrbg {
    /// Instantiates the DRBG from arbitrary seed material.
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            mac: HmacSha256::new(&[0u8; 32]),
            value: [1u8; 32],
            reseed_counter: 1,
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Mixes additional entropy or context into the state.
    pub fn reseed(&mut self, data: &[u8]) {
        self.update(Some(data));
        self.reseed_counter = 1;
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut offset = 0;
        while offset < out.len() {
            self.value = self.mac.mac_multi(&[&self.value]);
            let take = (out.len() - offset).min(32);
            out[offset..offset + take].copy_from_slice(&self.value[..take]);
            offset += take;
        }
        self.update(None);
        self.reseed_counter += 1;
    }

    /// Generates a fixed-size array of pseudorandom bytes.
    #[must_use]
    pub fn generate_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill_bytes(&mut out);
        out
    }

    /// Generates a pseudorandom `u64`.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.generate_array::<8>())
    }

    fn update(&mut self, data: Option<&[u8]>) {
        self.rekey(0x00, data.unwrap_or_default());
        if let Some(d) = data {
            self.rekey(0x01, d);
        }
    }

    /// One SP 800-90A update step: `K = HMAC(K, V || round || data)`,
    /// then `V = HMAC(K, V)`.
    fn rekey(&mut self, round: u8, data: &[u8]) {
        let key = self.mac.mac_multi(&[&self.value, &[round], data]);
        self.mac = HmacSha256::new(&key);
        self.value = self.mac.mac_multi(&[&self.value]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::from_seed(b"seed");
        let mut b = HmacDrbg::from_seed(b"seed");
        assert_eq!(a.generate_array::<64>(), b.generate_array::<64>());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::from_seed(b"seed-1");
        let mut b = HmacDrbg::from_seed(b"seed-2");
        assert_ne!(a.generate_array::<32>(), b.generate_array::<32>());
    }

    #[test]
    fn sequential_outputs_differ() {
        let mut rng = HmacDrbg::from_seed(b"x");
        let a = rng.generate_array::<32>();
        let b = rng.generate_array::<32>();
        assert_ne!(a, b);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::from_seed(b"x");
        let mut b = HmacDrbg::from_seed(b"x");
        let _ = a.generate_array::<8>();
        let _ = b.generate_array::<8>();
        b.reseed(b"extra");
        assert_ne!(a.generate_array::<32>(), b.generate_array::<32>());
    }

    #[test]
    fn fill_spans_multiple_hmac_blocks() {
        let mut rng = HmacDrbg::from_seed(b"y");
        let mut buf = vec![0u8; 100];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn u64_distribution_sanity() {
        let mut rng = HmacDrbg::from_seed(b"dist");
        let mut ones = 0u32;
        for _ in 0..64 {
            ones += rng.next_u64().count_ones();
        }
        // ~2048 expected; allow generous slack.
        assert!((1500..2600).contains(&ones), "bit balance off: {ones}");
    }
}
