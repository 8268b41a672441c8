//! HMAC (RFC 2104) over SHA-256 and SHA-512.
//!
//! HMAC-SHA256 is the Shield's default authentication engine (§5.1:
//! "We use AES-CTR + HMAC modules as default"). Because SHA-256 is a
//! Merkle–Damgård construction, the compressions of a single chunk are
//! strictly sequential — which is exactly why the paper's SDP and
//! DNNWeaver case studies become HMAC-bound and switch to PMAC (§6.2.3,
//! §6.2.4). The sequential constraint lives in the `shef-core` timing
//! model; this module provides the functional MAC.

use crate::ct;
use crate::sha2::{compress4, Sha256, Sha512, SHA256_BLOCK_LEN, SHA512_BLOCK_LEN};

/// Length in bytes of a full HMAC-SHA256 tag.
pub const HMAC_SHA256_TAG_LEN: usize = 32;

/// Messages [`HmacSha256::mac_batch`] hashes in lockstep.
const LANES: usize = 4;

/// Computes HMAC-SHA256 over `data`.
///
/// # Example
///
/// ```
/// let tag = shef_crypto::hmac::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    hmac_sha256_multi(key, &[data])
}

/// Computes HMAC-SHA256 over the concatenation of `parts`.
///
/// The Shield MACs `(address, ciphertext, counter)` tuples without
/// materializing the concatenation; this mirrors that datapath.
#[must_use]
pub fn hmac_sha256_multi(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    HmacSha256::new(key).mac_multi(parts)
}

/// An HMAC-SHA256 key with its pads already absorbed.
///
/// Holds the two SHA-256 states left after compressing `K ⊕ ipad` and
/// `K ⊕ opad`, so each tag costs only the message and the outer digest
/// compressions — two fewer than [`hmac_sha256_multi`], which rebuilds
/// the pads on every call.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl core::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The midstates are key material.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Absorbs `key ⊕ ipad` and `key ⊕ opad` (RFC 2104; keys longer than
    /// a block are hashed first).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; SHA256_BLOCK_LEN];
        if key.len() > SHA256_BLOCK_LEN {
            key_block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// The HMAC-SHA256 tag over the concatenation of `parts`.
    #[must_use]
    pub fn mac_multi(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// The tags of many messages, each the concatenation of its `P`
    /// parts: calls `emit(i, tag)` once per message `i`, with the tag
    /// [`HmacSha256::mac_multi`] gives for it.
    ///
    /// Messages whose inner hashes take the same number of SHA-256
    /// compressions are tagged four at a time, in lockstep, from the
    /// cached midstates; the leftovers of each such group go through
    /// `mac_multi`. The grouping depends only on message lengths. Fewer
    /// than four messages allocate nothing.
    pub fn mac_batch<const P: usize>(
        &self,
        messages: &[[&[u8]; P]],
        mut emit: impl FnMut(usize, [u8; 32]),
    ) {
        if messages.len() < LANES {
            for (i, m) in messages.iter().enumerate() {
                emit(i, self.mac_multi(m));
            }
            return;
        }
        let blocks = |&i: &usize| Sha256::compressions_for_len(message_len(&messages[i]));
        let mut order: Vec<usize> = (0..messages.len()).collect();
        order.sort_by_key(blocks);
        for run in order.chunk_by(|a, b| blocks(a) == blocks(b)) {
            let mut groups = run.chunks_exact(LANES);
            for group in &mut groups {
                let group: [usize; LANES] = group.try_into().expect("chunks_exact");
                for (i, tag) in group
                    .into_iter()
                    .zip(self.mac4(group.map(|i| &messages[i])))
                {
                    emit(i, tag);
                }
            }
            for &i in groups.remainder() {
                emit(i, self.mac_multi(&messages[i]));
            }
        }
    }

    /// Four tags in one pass: lane `l` hashes `messages[l]`. All four
    /// inner hashes must take the same number of compressions.
    fn mac4<const P: usize>(&self, messages: [&[&[u8]; P]; LANES]) -> [[u8; 32]; LANES] {
        let (inner, prefix) = self.inner.midstate();
        let lens = messages.map(|parts| message_len(parts));
        let n_blocks = Sha256::compressions_for_len(lens[0]) as usize;
        let mut readers = messages.map(|parts| Parts {
            parts,
            part: 0,
            offset: 0,
        });
        let mut state = inner.map(|word| [word; LANES]);
        let mut blocks = [[0u8; SHA256_BLOCK_LEN]; LANES];
        for b in 0..n_blocks {
            let start = b * SHA256_BLOCK_LEN;
            for ((block, reader), &len) in blocks.iter_mut().zip(&mut readers).zip(&lens) {
                // FIPS 180-4 padding, per lane: 0x80 after the message,
                // then zeros, then the bit length ending the last block.
                let filled = reader.fill(block);
                block[filled..].fill(0);
                if (start..start + SHA256_BLOCK_LEN).contains(&len) {
                    block[len - start] = 0x80;
                }
                if b + 1 == n_blocks {
                    let bits = (prefix + len as u64) * 8;
                    block[SHA256_BLOCK_LEN - 8..].copy_from_slice(&bits.to_be_bytes());
                }
            }
            compress4(&mut state, &blocks);
        }
        // The outer hash: one block of inner digest and padding per lane.
        let (outer, prefix) = self.outer.midstate();
        for (l, block) in blocks.iter_mut().enumerate() {
            for (bytes, word) in block.chunks_exact_mut(4).zip(&state) {
                bytes.copy_from_slice(&word[l].to_be_bytes());
            }
            block[32] = 0x80;
            block[33..SHA256_BLOCK_LEN - 8].fill(0);
            let bits = (prefix + 32) * 8;
            block[SHA256_BLOCK_LEN - 8..].copy_from_slice(&bits.to_be_bytes());
        }
        let mut state = outer.map(|word| [word; LANES]);
        compress4(&mut state, &blocks);
        let mut tags = [[0u8; 32]; LANES];
        for (l, tag) in tags.iter_mut().enumerate() {
            for (bytes, word) in tag.chunks_exact_mut(4).zip(&state) {
                bytes.copy_from_slice(&word[l].to_be_bytes());
            }
        }
        tags
    }
}

fn message_len(parts: &[&[u8]]) -> usize {
    parts.iter().map(|part| part.len()).sum()
}

/// Reads the concatenation of a message's parts one block at a time.
struct Parts<'a, const P: usize> {
    parts: &'a [&'a [u8]; P],
    part: usize,
    offset: usize,
}

impl<const P: usize> Parts<'_, P> {
    /// Copies the next (up to) 64 message bytes into `block`; returns
    /// how many.
    fn fill(&mut self, block: &mut [u8; SHA256_BLOCK_LEN]) -> usize {
        let mut filled = 0;
        while filled < SHA256_BLOCK_LEN && self.part < P {
            let rest = &self.parts[self.part][self.offset..];
            let take = rest.len().min(SHA256_BLOCK_LEN - filled);
            block[filled..filled + take].copy_from_slice(&rest[..take]);
            filled += take;
            if take == rest.len() {
                self.part += 1;
                self.offset = 0;
            } else {
                self.offset += take;
            }
        }
        filled
    }
}

/// Computes HMAC-SHA512 over `data` (used by the deterministic DRBG).
#[must_use]
pub fn hmac_sha512(key: &[u8], data: &[u8]) -> [u8; 64] {
    let mut key_block = [0u8; SHA512_BLOCK_LEN];
    if key.len() > SHA512_BLOCK_LEN {
        key_block[..64].copy_from_slice(&Sha512::digest(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha512::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(data);
    let inner_digest = inner.finalize();
    let mut outer = Sha512::new();
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(&inner_digest);
    outer.finalize()
}

/// Verifies an HMAC-SHA256 tag in constant time.
///
/// `tag` may be a truncated prefix of the full 32-byte tag (the Shield
/// stores 16-byte tags in DRAM, §5.2.2); at least 16 bytes are required.
#[must_use]
pub fn verify_hmac_sha256(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
    if tag.len() < 16 || tag.len() > 32 {
        return false;
    }
    let computed = hmac_sha256(key, data);
    ct::eq(&computed[..tag.len()], tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_hex, to_hex};

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_2_sha512() {
        let tag = hmac_sha512(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554\
             9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
        );
    }

    #[test]
    fn multi_part_equals_concat() {
        let key = b"k";
        let concat = hmac_sha256(key, b"abcdef");
        let multi = hmac_sha256_multi(key, &[b"ab", b"cd", b"ef"]);
        assert_eq!(concat, multi);
        let multi2 = hmac_sha256_multi(key, &[b"", b"abcdef", b""]);
        assert_eq!(concat, multi2);
    }

    #[test]
    fn verify_accepts_truncated_tags() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f").unwrap();
        let full = hmac_sha256(&key, b"chunk data");
        assert!(verify_hmac_sha256(&key, b"chunk data", &full));
        assert!(verify_hmac_sha256(&key, b"chunk data", &full[..16]));
        assert!(!verify_hmac_sha256(&key, b"chunk data", &full[..15]));
        let mut bad = full;
        bad[0] ^= 1;
        assert!(!verify_hmac_sha256(&key, b"chunk data", &bad));
        assert!(!verify_hmac_sha256(&key, b"other data", &full));
    }
}
