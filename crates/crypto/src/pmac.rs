//! PMAC — a parallelizable message authentication code over AES.
//!
//! The Shield offers a "PMAC engine based on AES" (§6.2.1, Table 1) as a
//! drop-in replacement for HMAC when authentication bandwidth is the
//! bottleneck: because each 16-byte block is masked and encrypted
//! independently before a final accumulation, the per-block AES
//! operations can be spread across multiple engines *within one chunk* —
//! unlike HMAC's serial compression chain. This is the optimization that
//! takes SDP from 297 % overhead to 59 % (Table 2) and DNNWeaver from
//! 3.20× to 2.31× (Fig. 6).
//!
//! The construction follows Black–Rogaway PMAC, with successive
//! doublings in place of Gray-code multiples: with L = E_K(0), block `i`
//! (from 1) of all but the last is XOR-masked with L·x^i (`dbl` applied
//! `i` times), encrypted, and XOR-accumulated into Σ. The last block is
//! folded into Σ unencrypted: a full one with mask L·x², a partial (or
//! empty) one padded 10* and with mask L·x³; the tag is E_K of the
//! result. This simplified finalization (distinct masks for a full and a
//! partial last block) keeps the parallel structure; all security tests
//! in this workspace treat it as an opaque MAC.
//!
//! # Example
//!
//! ```
//! use shef_crypto::aes::Aes;
//! use shef_crypto::pmac::pmac;
//!
//! let aes = Aes::new_128(&[0x42; 16]);
//! let tag = pmac(&aes, b"weights chunk");
//! assert_eq!(tag.len(), 16);
//! ```

use crate::aes::{Aes, AES_BATCH, AES_BLOCK_LEN};
use crate::ct;

/// Length in bytes of a PMAC tag.
pub const PMAC_TAG_LEN: usize = 16;

/// Doubles a 128-bit value in GF(2^128) (the standard dbl() used by
/// OMAC/PMAC mask schedules), without branching on the secret top bit.
fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let v = u128::from_be_bytes(*block);
    ((v << 1) ^ (0x87 & 0u128.wrapping_sub(v >> 127))).to_be_bytes()
}

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    (u128::from_ne_bytes(*a) ^ u128::from_ne_bytes(*b)).to_ne_bytes()
}

/// Computes a PMAC tag over `data` with the given AES instance.
#[must_use]
pub fn pmac(aes: &Aes, data: &[u8]) -> [u8; PMAC_TAG_LEN] {
    pmac_multi(aes, &[data])
}

/// Computes a PMAC tag over the concatenation of `parts`.
#[must_use]
pub fn pmac_multi(aes: &Aes, parts: &[&[u8]]) -> [u8; PMAC_TAG_LEN] {
    pmac_multi_with_l(aes, &aes.encrypt_block(&[0u8; 16]), parts)
}

/// [`pmac_multi`] with the caller's cached `l = E_K(0^128)`.
///
/// The parts stream through a 16-byte carry block, so nothing is
/// concatenated. A full carry block is only known not to be the final
/// block once more input arrives; then it is masked and queued, and every
/// [`AES_BATCH`] queued blocks go through one cipher pass.
pub(crate) fn pmac_multi_with_l(aes: &Aes, l: &[u8; 16], parts: &[&[u8]]) -> [u8; PMAC_TAG_LEN] {
    let mut sigma = [0u8; 16];
    let mut mask = dbl(l);
    let mut queue = [[0u8; AES_BLOCK_LEN]; AES_BATCH];
    let mut queued = 0;
    let mut carry = [0u8; AES_BLOCK_LEN];
    let mut carried = 0;
    for part in parts {
        let mut input = *part;
        while !input.is_empty() {
            if carried == AES_BLOCK_LEN {
                // All blocks except the final one are masked and
                // encrypted independently — the parallelizable part.
                queue[queued] = xor16(&carry, &mask);
                mask = dbl(&mask);
                queued += 1;
                if queued == AES_BATCH {
                    sigma = absorb(aes, sigma, &mut queue);
                    queued = 0;
                }
                carried = 0;
            }
            let take = (AES_BLOCK_LEN - carried).min(input.len());
            carry[carried..carried + take].copy_from_slice(&input[..take]);
            carried += take;
            input = &input[take..];
        }
    }
    sigma = absorb(aes, sigma, &mut queue[..queued]);
    // Final block handling: full final block XORed directly with a
    // distinct mask; partial (or empty) block padded 10*.
    let final_mask = if carried == AES_BLOCK_LEN {
        dbl(&dbl(l))
    } else {
        carry[carried..].fill(0);
        carry[carried] = 0x80;
        dbl(&dbl(&dbl(l)))
    };
    aes.encrypt_block(&xor16(&xor16(&sigma, &carry), &final_mask))
}

/// Encrypts the queued masked blocks and XORs them into `sigma`.
fn absorb(aes: &Aes, sigma: [u8; 16], blocks: &mut [[u8; 16]]) -> [u8; 16] {
    aes.encrypt_blocks(blocks);
    blocks.iter().fold(sigma, |acc, b| xor16(&acc, b))
}

/// Verifies a PMAC tag in constant time.
#[must_use]
pub fn verify_pmac(aes: &Aes, data: &[u8], tag: &[u8]) -> bool {
    if tag.len() != PMAC_TAG_LEN {
        return false;
    }
    ct::eq(&pmac(aes, data), tag)
}

/// Number of AES block operations needed to MAC `len` bytes, for the
/// timing model: one per 16-byte block (mask+encrypt) plus one
/// finalization encryption.
#[must_use]
pub fn blocks_for_len(len: usize) -> u64 {
    (len as u64).div_ceil(AES_BLOCK_LEN as u64).max(1) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aes() -> Aes {
        Aes::new_128(&[7u8; 16])
    }

    #[test]
    fn deterministic() {
        assert_eq!(pmac(&aes(), b"hello"), pmac(&aes(), b"hello"));
    }

    #[test]
    fn distinguishes_messages() {
        let a = pmac(&aes(), b"hello");
        let b = pmac(&aes(), b"hellp");
        assert_ne!(a, b);
    }

    #[test]
    fn distinguishes_lengths_at_block_boundary() {
        // A 16-byte message and the same message padded with 0x80 0x00...
        // must not collide (the full/partial final-block masks differ).
        let full = [0xabu8; 16];
        let mut padded = [0u8; 15];
        padded.copy_from_slice(&full[..15]);
        let a = pmac(&aes(), &full);
        let b = pmac(&aes(), &padded);
        assert_ne!(a, b);
        // Empty vs single zero byte.
        assert_ne!(pmac(&aes(), b""), pmac(&aes(), &[0u8]));
    }

    #[test]
    fn distinguishes_keys() {
        let other = Aes::new_128(&[8u8; 16]);
        assert_ne!(pmac(&aes(), b"hello"), pmac(&other, b"hello"));
    }

    #[test]
    fn block_permutation_detected() {
        // Swapping two 16-byte blocks must change the tag (each position
        // has its own doubling of L as mask).
        let mut data = vec![0u8; 48];
        data[0..16].copy_from_slice(&[1u8; 16]);
        data[16..32].copy_from_slice(&[2u8; 16]);
        let tag1 = pmac(&aes(), &data);
        data[0..16].copy_from_slice(&[2u8; 16]);
        data[16..32].copy_from_slice(&[1u8; 16]);
        let tag2 = pmac(&aes(), &data);
        assert_ne!(tag1, tag2);
    }

    #[test]
    fn multi_part_equals_concat() {
        let a = pmac(&aes(), b"abcdef0123456789ABCDEF");
        let b = pmac_multi(&aes(), &[b"abcdef", b"0123456789", b"ABCDEF"]);
        assert_eq!(a, b);
    }

    #[test]
    fn verify_round_trip() {
        let tag = pmac(&aes(), b"data");
        assert!(verify_pmac(&aes(), b"data", &tag));
        assert!(!verify_pmac(&aes(), b"datb", &tag));
        assert!(!verify_pmac(&aes(), b"data", &tag[..8]));
    }

    #[test]
    fn dbl_known_behaviour() {
        // dbl of a value with MSB clear is a plain shift.
        let mut x = [0u8; 16];
        x[15] = 1;
        assert_eq!(dbl(&x)[15], 2);
        // dbl with MSB set folds in 0x87.
        let mut y = [0u8; 16];
        y[0] = 0x80;
        let d = dbl(&y);
        assert_eq!(d[15], 0x87);
        assert_eq!(d[0], 0);
    }

    #[test]
    fn timing_block_count() {
        assert_eq!(blocks_for_len(0), 2);
        assert_eq!(blocks_for_len(16), 2);
        assert_eq!(blocks_for_len(17), 3);
        assert_eq!(blocks_for_len(4096), 257);
    }
}
