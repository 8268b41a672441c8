//! The on-DRAM chunk format shared by the Shield and the Data Owner's
//! client-side encryption.
//!
//! Every `C_mem`-byte chunk of a protected region is stored as:
//!
//! * **ciphertext** at its natural address (AES-CTR, IV derived from the
//!   region nonce, chunk index and write epoch);
//! * a **16-byte MAC tag** in the region's tag-arena slot, computed in
//!   encrypt-then-MAC mode over `(region, index, epoch) || IV ||
//!   ciphertext`.
//!
//! Binding the index defeats *splicing* (copying ciphertext between
//! addresses), binding the region defeats cross-region splices, and
//! binding the epoch (backed by on-chip counters) defeats *replay*
//! (§5.2.1/§5.2.2).
//!
//! Both sides seal and open through one [`ChunkCipher`] per region, in
//! batches, on buffers the caller owns: a seal encrypts the plaintext
//! where it lies and writes the tag into the caller's slot, and an open
//! verifies and then decrypts where the ciphertext lies.

use shef_crypto::authenc::{AuthEncKey, OpenInPlace, SealInPlace, TAG_LEN};
use shef_crypto::ctr::ChunkIv;
use shef_crypto::CryptoError;

use super::config::RegionConfig;
use super::keys::DataEncryptionKey;
use crate::wire::Writer;
use crate::ShefError;

/// Bytes of MAC tag stored per chunk.
pub const CHUNK_TAG_LEN: usize = TAG_LEN;

/// Associated data binding a chunk to its identity and version: the
/// format tag and the region name as length-prefixed strings, then the
/// chunk index and the epoch, little-endian.
#[must_use]
pub fn chunk_ad(region_name: &str, chunk_idx: u32, epoch: u64) -> Vec<u8> {
    let mut ad = ad_prefix(region_name);
    push_ad_suffix(&mut ad, chunk_idx, epoch);
    ad
}

/// The part of [`chunk_ad`] a region fixes.
fn ad_prefix(region_name: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str("shef.chunk.v1");
    w.put_str(region_name);
    w.finish()
}

/// The part of [`chunk_ad`] that varies per chunk, encoded as
/// [`Writer::put_u32`] and [`Writer::put_u64`] encode.
fn push_ad_suffix(ad: &mut Vec<u8>, chunk_idx: u32, epoch: u64) {
    ad.extend_from_slice(&chunk_idx.to_le_bytes());
    ad.extend_from_slice(&epoch.to_le_bytes());
}

/// Bytes [`push_ad_suffix`] appends.
const AD_SUFFIX_LEN: usize = 4 + 8;

/// The IV for a chunk at a given write epoch.
#[must_use]
pub fn chunk_iv(region_nonce: [u8; 8], chunk_idx: u32, epoch: u64) -> ChunkIv {
    if epoch == 0 {
        ChunkIv::for_chunk(region_nonce, chunk_idx)
    } else {
        ChunkIv::for_chunk_epoch(region_nonce, chunk_idx, epoch)
    }
}

/// A region's chunk cipher: its key, its nonce, and the prefix every
/// chunk's associated data shares.
pub struct ChunkCipher {
    key: AuthEncKey,
    nonce: [u8; 8],
    name: String,
    /// [`chunk_ad`]'s bytes before the chunk index.
    ad_prefix: Vec<u8>,
}

impl core::fmt::Debug for ChunkCipher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ChunkCipher")
            .field("region", &self.name)
            .finish_non_exhaustive()
    }
}

impl ChunkCipher {
    /// The cipher for region `region_name` under `key` and `nonce`.
    #[must_use]
    pub fn new(key: AuthEncKey, nonce: [u8; 8], region_name: &str) -> Self {
        ChunkCipher {
            key,
            nonce,
            name: region_name.to_owned(),
            ad_prefix: ad_prefix(region_name),
        }
    }

    /// The cipher `dek` derives for `region`.
    #[must_use]
    pub fn for_region(dek: &DataEncryptionKey, region: &RegionConfig) -> Self {
        Self::new(
            dek.region_key(region),
            dek.region_nonce(region),
            &region.name,
        )
    }

    /// Seals a batch of chunks where they lie: for each `(chunk_idx,
    /// epoch, buf, tag)`, encrypts the plaintext in `buf` and writes the
    /// chunk's tag into `tag`. Equal-length HMAC chunks share SHA-256
    /// passes ([`AuthEncKey::seal_batch`]).
    pub fn seal<'a>(
        &self,
        chunks: impl IntoIterator<Item = (u32, u64, &'a mut [u8], &'a mut [u8; CHUNK_TAG_LEN])>,
    ) {
        let mut chunks = chunks.into_iter().peekable();
        if chunks.peek().is_none() {
            return;
        }
        let n = batch_len(&chunks);
        let mut ads = Vec::with_capacity(n * self.ad_len());
        let mut messages = Vec::with_capacity(n);
        for (idx, epoch, buf, tag) in chunks {
            self.push_ad(&mut ads, idx, epoch);
            let iv = chunk_iv(self.nonce, idx, epoch);
            messages.push(SealInPlace {
                ad: &[],
                iv,
                buf,
                tag,
            });
        }
        for (m, ad) in messages.iter_mut().zip(ads.chunks_exact(self.ad_len())) {
            m.ad = ad;
        }
        self.key.seal_batch(&mut messages);
    }

    /// Opens a batch of chunks where they lie: for each `(chunk_idx,
    /// epoch, buf, tag)`, verifies `tag` over the ciphertext in `buf` and,
    /// if it matches, decrypts `buf`. Returns one verdict per chunk, in
    /// input order; a chunk that fails keeps its ciphertext and does not
    /// affect the others. [`ChunkCipher::integrity_violation`] is the
    /// error to report for a failed chunk.
    #[must_use]
    pub fn open<'a>(
        &self,
        chunks: impl IntoIterator<Item = (u32, u64, &'a mut [u8], &'a [u8; CHUNK_TAG_LEN])>,
    ) -> Vec<Result<(), CryptoError>> {
        let mut chunks = chunks.into_iter().peekable();
        if chunks.peek().is_none() {
            return Vec::new();
        }
        let n = batch_len(&chunks);
        let mut ads = Vec::with_capacity(n * self.ad_len());
        let mut messages = Vec::with_capacity(n);
        for (idx, epoch, buf, tag) in chunks {
            self.push_ad(&mut ads, idx, epoch);
            let iv = chunk_iv(self.nonce, idx, epoch);
            messages.push(OpenInPlace {
                ad: &[],
                iv,
                buf,
                tag,
            });
        }
        for (m, ad) in messages.iter_mut().zip(ads.chunks_exact(self.ad_len())) {
            m.ad = ad;
        }
        self.key.open_batch(&mut messages)
    }

    /// The Shield's spoof/splice/replay detection error for chunk
    /// `chunk_idx` failing authentication at `epoch`.
    #[must_use]
    pub fn integrity_violation(&self, chunk_idx: u32, epoch: u64) -> ShefError {
        ShefError::IntegrityViolation(format!(
            "chunk {chunk_idx} of region '{}' failed authentication at epoch {epoch}",
            self.name
        ))
    }

    fn ad_len(&self) -> usize {
        self.ad_prefix.len() + AD_SUFFIX_LEN
    }

    /// Appends chunk `idx`'s associated data at `epoch` to `ads`.
    fn push_ad(&self, ads: &mut Vec<u8>, idx: u32, epoch: u64) {
        ads.extend_from_slice(&self.ad_prefix);
        push_ad_suffix(ads, idx, epoch);
    }
}

/// The most chunks `chunks` can yield: a filtered batch reserves for
/// every chunk it might keep, so its buffers are allocated once. Callers
/// return early on an empty batch, which therefore allocates nothing.
fn batch_len(chunks: &impl Iterator) -> usize {
    let (lower, upper) = chunks.size_hint();
    upper.unwrap_or(lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_crypto::authenc::MacAlgorithm;

    fn cipher(alg: MacAlgorithm, name: &str) -> ChunkCipher {
        ChunkCipher::new(AuthEncKey::from_bytes([7u8; 32], alg), [1; 8], name)
    }

    /// A one-chunk seal: `(ciphertext, tag)`.
    fn seal(c: &ChunkCipher, idx: u32, epoch: u64, plaintext: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let mut buf = plaintext.to_vec();
        let mut tag = [0u8; CHUNK_TAG_LEN];
        c.seal([(idx, epoch, buf.as_mut_slice(), &mut tag)]);
        (buf, tag)
    }

    /// A one-chunk open: the plaintext, or the reported error.
    fn open(
        c: &ChunkCipher,
        idx: u32,
        epoch: u64,
        ciphertext: &[u8],
        tag: &[u8; 16],
    ) -> Result<Vec<u8>, ShefError> {
        let mut buf = ciphertext.to_vec();
        match c.open([(idx, epoch, buf.as_mut_slice(), tag)])[0] {
            Ok(()) => Ok(buf),
            Err(_) => {
                assert_eq!(buf, ciphertext, "a failed open keeps the ciphertext");
                Err(c.integrity_violation(idx, epoch))
            }
        }
    }

    #[test]
    fn seal_open_round_trip() {
        let k = cipher(MacAlgorithm::HmacSha256, "weights");
        let (ct, tag) = seal(&k, 5, 0, b"chunk payload");
        let pt = open(&k, 5, 0, &ct, &tag).unwrap();
        assert_eq!(pt, b"chunk payload");
    }

    #[test]
    fn spoofing_detected() {
        let k = cipher(MacAlgorithm::HmacSha256, "r");
        let (mut ct, tag) = seal(&k, 0, 0, &[0xaa; 64]);
        ct[10] ^= 1;
        assert!(matches!(
            open(&k, 0, 0, &ct, &tag),
            Err(ShefError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn splicing_detected() {
        // Chunk 3's ciphertext presented as chunk 4 must fail.
        let k = cipher(MacAlgorithm::HmacSha256, "r");
        let (ct, tag) = seal(&k, 3, 0, &[0xbb; 64]);
        assert!(open(&k, 4, 0, &ct, &tag).is_err());
        // Cross-region splice must fail too.
        assert!(open(&cipher(MacAlgorithm::HmacSha256, "other"), 3, 0, &ct, &tag).is_err());
    }

    #[test]
    fn replay_detected_via_epoch() {
        // Old-epoch ciphertext presented at a newer epoch must fail.
        let k = cipher(MacAlgorithm::HmacSha256, "r");
        let (ct0, tag0) = seal(&k, 0, 0, &[0xcc; 64]);
        assert!(open(&k, 0, 1, &ct0, &tag0).is_err());
        // And the fresh epoch verifies.
        let (ct1, tag1) = seal(&k, 0, 1, &[0xdd; 64]);
        assert_eq!(open(&k, 0, 1, &ct1, &tag1).unwrap(), vec![0xdd; 64]);
    }

    #[test]
    fn epochs_change_keystream() {
        let k = cipher(MacAlgorithm::HmacSha256, "r");
        let (ct0, _) = seal(&k, 0, 1, &[0; 64]);
        let (ct1, _) = seal(&k, 0, 2, &[0; 64]);
        assert_ne!(ct0, ct1);
    }

    #[test]
    fn pmac_variant_interoperates() {
        let k = cipher(MacAlgorithm::PmacAes, "w");
        let (ct, tag) = seal(&k, 9, 3, b"pmac chunk");
        assert_eq!(open(&k, 9, 3, &ct, &tag).unwrap(), b"pmac chunk");
    }
}
