//! AES-CTR mode with the Shield's IV layout.
//!
//! The Shield associates each authenticated-encryption chunk with a
//! "12-byte initialization vector (IV), which is incremented by 1 for each
//! successive chunk to ensure that no two ciphertext blocks reuse the same
//! IV" (§5.2.2). The counter block is therefore `IV (12 bytes) || block
//! counter (4 bytes, big endian)`, and a chunk may span up to 2^32 AES
//! blocks.
//!
//! # Example
//!
//! ```
//! use shef_crypto::aes::Aes;
//! use shef_crypto::ctr::{ChunkIv, ctr_xor};
//!
//! let aes = Aes::new_128(&[1u8; 16]);
//! let iv = ChunkIv::for_chunk([0u8; 8], 42);
//! let mut data = *b"shield chunk payload";
//! ctr_xor(&aes, &iv, &mut data);
//! ctr_xor(&aes, &iv, &mut data); // CTR is an involution
//! assert_eq!(&data, b"shield chunk payload");
//! ```

use crate::aes::{Aes, AES_BATCH, AES_BLOCK_LEN};

/// Length of the CTR initialization vector in bytes.
pub const IV_LEN: usize = 12;

/// A 12-byte IV identifying one authenticated-encryption chunk.
///
/// The Shield derives per-chunk IVs from a region nonce plus the chunk
/// index, and bumps the epoch on every re-encryption of the same chunk so
/// that keystreams never repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkIv(pub [u8; IV_LEN]);

impl ChunkIv {
    /// Builds the IV for chunk `index` within a region identified by an
    /// 8-byte `region_nonce`.
    #[must_use]
    pub fn for_chunk(region_nonce: [u8; 8], index: u32) -> Self {
        let mut iv = [0u8; IV_LEN];
        iv[..8].copy_from_slice(&region_nonce);
        iv[8..].copy_from_slice(&index.to_be_bytes());
        ChunkIv(iv)
    }

    /// Builds an IV that also encodes a write epoch, for regions with
    /// freshness counters: the paper's counter value is mixed into the IV
    /// so rewritten chunks use fresh keystreams.
    #[must_use]
    pub fn for_chunk_epoch(region_nonce: [u8; 8], index: u32, epoch: u64) -> Self {
        let mut iv = [0u8; IV_LEN];
        let mixed = u64::from_be_bytes(region_nonce.map(|b| b)) ^ epoch.rotate_left(17);
        iv[..8].copy_from_slice(&mixed.to_be_bytes());
        iv[8..].copy_from_slice(&index.to_be_bytes());
        ChunkIv(iv)
    }

    /// Returns the IV incremented by one (next successive chunk).
    #[must_use]
    pub fn next(&self) -> Self {
        let mut iv = self.0;
        for byte in iv.iter_mut().rev() {
            let (v, carry) = byte.overflowing_add(1);
            *byte = v;
            if !carry {
                break;
            }
        }
        ChunkIv(iv)
    }
}

/// XORs the AES-CTR keystream for `iv` into `data`, in place.
///
/// Encryption and decryption are the same operation.
pub fn ctr_xor(aes: &Aes, iv: &ChunkIv, data: &mut [u8]) {
    ctr_xor_from(aes, &iv.0, 0, data);
}

/// XORs the keystream of counter blocks `iv || be32(first + i)` (the
/// counter wraps modulo 2^32) into `data`, [`AES_BATCH`] blocks per cipher
/// pass. Shared by [`ctr_xor`] and GCM's GCTR.
pub(crate) fn ctr_xor_from(aes: &Aes, iv: &[u8; IV_LEN], first: u32, data: &mut [u8]) {
    let mut keystream = [[0u8; AES_BLOCK_LEN]; AES_BATCH];
    let mut counter = first;
    for group in data.chunks_mut(AES_BATCH * AES_BLOCK_LEN) {
        let blocks = &mut keystream[..group.len().div_ceil(AES_BLOCK_LEN)];
        for block in blocks.iter_mut() {
            block[..IV_LEN].copy_from_slice(iv);
            block[IV_LEN..].copy_from_slice(&counter.to_be_bytes());
            counter = counter.wrapping_add(1);
        }
        aes.encrypt_blocks(blocks);
        for (d, k) in group.iter_mut().zip(blocks.as_flattened()) {
            *d ^= k;
        }
    }
}

/// Returns the number of AES block operations needed to process `len`
/// bytes in CTR mode. Used by the Shield timing model.
#[must_use]
pub fn blocks_for_len(len: usize) -> u64 {
    (len as u64).div_ceil(AES_BLOCK_LEN as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_hex;

    #[test]
    fn ctr_is_involution() {
        let aes = Aes::new_256(&[9u8; 32]);
        let iv = ChunkIv::for_chunk([1, 2, 3, 4, 5, 6, 7, 8], 7);
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut data = original.clone();
        ctr_xor(&aes, &iv, &mut data);
        assert_ne!(data, original);
        ctr_xor(&aes, &iv, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn nist_ctr_vector() {
        // SP 800-38A F.5.1 (AES-128-CTR) — the standard uses a full
        // 16-byte initial counter; we reproduce it by splitting into our
        // IV+counter layout for the first block only.
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes::new_128(&key);
        // Initial counter block f0f1...feff: IV = first 12 bytes, counter = fcfdfeff.
        let mut counter_block = [0u8; 16];
        counter_block.copy_from_slice(&from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").unwrap());
        let keystream = aes.encrypt_block(&counter_block);
        let pt = from_hex("6bc1bee22e409f96e93d7e117393172a").unwrap();
        let ct: Vec<u8> = pt
            .iter()
            .zip(keystream.iter())
            .map(|(p, k)| p ^ k)
            .collect();
        assert_eq!(crate::to_hex(&ct), "874d6191b620e3261bef6864990db6ce");
    }

    #[test]
    fn distinct_chunks_use_distinct_keystreams() {
        let aes = Aes::new_128(&[3u8; 16]);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ctr_xor(&aes, &ChunkIv::for_chunk([0; 8], 0), &mut a);
        ctr_xor(&aes, &ChunkIv::for_chunk([0; 8], 1), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn epoch_changes_keystream() {
        let aes = Aes::new_128(&[3u8; 16]);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ctr_xor(&aes, &ChunkIv::for_chunk_epoch([5; 8], 0, 1), &mut a);
        ctr_xor(&aes, &ChunkIv::for_chunk_epoch([5; 8], 0, 2), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn iv_increment_carries() {
        let iv = ChunkIv([0xff; IV_LEN]);
        assert_eq!(iv.next().0, [0u8; IV_LEN]);
        let iv = ChunkIv::for_chunk([0; 8], 0x0000_00ff);
        assert_eq!(iv.next(), ChunkIv::for_chunk([0; 8], 0x0000_0100));
    }

    #[test]
    fn counter_wraps_inside_a_full_pass() {
        // Counters 2^32 − 6 ..= 2^32 − 1, then 0, 1, …: the wrap lands
        // inside the first 16-block pass, and a 5-byte tail follows three
        // full passes.
        let aes = Aes::new_128(&[0x5c; 16]);
        let iv = [0xa7; IV_LEN];
        let first = u32::MAX - 5;
        let mut keystream = vec![0u8; 3 * AES_BATCH * AES_BLOCK_LEN + 5];
        ctr_xor_from(&aes, &iv, first, &mut keystream);
        for (i, got) in keystream.chunks(AES_BLOCK_LEN).enumerate() {
            let mut block = [0u8; AES_BLOCK_LEN];
            block[..IV_LEN].copy_from_slice(&iv);
            block[IV_LEN..].copy_from_slice(&first.wrapping_add(i as u32).to_be_bytes());
            assert_eq!(got, &aes.encrypt_block(&block)[..got.len()], "block {i}");
        }
    }

    #[test]
    fn block_count_model() {
        assert_eq!(blocks_for_len(0), 0);
        assert_eq!(blocks_for_len(1), 1);
        assert_eq!(blocks_for_len(16), 1);
        assert_eq!(blocks_for_len(17), 2);
        assert_eq!(blocks_for_len(512), 32);
    }
}
