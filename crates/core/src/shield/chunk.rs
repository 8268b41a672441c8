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

use shef_crypto::authenc::{AuthEncKey, TAG_LEN};
use shef_crypto::ctr::ChunkIv;

use crate::wire::Writer;
use crate::ShefError;

/// Bytes of MAC tag stored per chunk.
pub const CHUNK_TAG_LEN: usize = TAG_LEN;

/// Associated data binding a chunk to its identity and version.
#[must_use]
pub fn chunk_ad(region_name: &str, chunk_idx: u32, epoch: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str("shef.chunk.v1");
    w.put_str(region_name);
    w.put_u32(chunk_idx);
    w.put_u64(epoch);
    w.finish()
}

/// The IV for a chunk at a given write epoch.
#[must_use]
pub fn chunk_iv(region_nonce: [u8; 8], chunk_idx: u32, epoch: u64) -> ChunkIv {
    if epoch == 0 {
        ChunkIv::for_chunk(region_nonce, chunk_idx)
    } else {
        ChunkIv::for_chunk_epoch(region_nonce, chunk_idx, epoch)
    }
}

/// Encrypts and MACs one chunk; returns `(ciphertext, tag)`.
#[must_use]
pub fn seal_chunk(
    key: &AuthEncKey,
    region_nonce: [u8; 8],
    region_name: &str,
    chunk_idx: u32,
    epoch: u64,
    plaintext: &[u8],
) -> (Vec<u8>, [u8; CHUNK_TAG_LEN]) {
    let iv = chunk_iv(region_nonce, chunk_idx, epoch);
    let ad = chunk_ad(region_name, chunk_idx, epoch);
    let sealed = key.seal_with_iv(plaintext, &ad, iv);
    (sealed.ciphertext, sealed.tag)
}

/// Verifies and decrypts one chunk.
///
/// # Errors
///
/// Returns [`ShefError::IntegrityViolation`] if the tag does not match —
/// the Shield's spoof/splice/replay detection path.
pub fn open_chunk(
    key: &AuthEncKey,
    region_nonce: [u8; 8],
    region_name: &str,
    chunk_idx: u32,
    epoch: u64,
    ciphertext: &[u8],
    tag: &[u8; CHUNK_TAG_LEN],
) -> Result<Vec<u8>, ShefError> {
    let iv = chunk_iv(region_nonce, chunk_idx, epoch);
    let ad = chunk_ad(region_name, chunk_idx, epoch);
    let mut plaintext = ciphertext.to_vec();
    key.open_in_place(&iv.0, &ad, &mut plaintext, tag)
        .map_err(|_| integrity_violation(region_name, chunk_idx, epoch))?;
    Ok(plaintext)
}

/// [`seal_chunk`] over many `(chunk_idx, epoch, plaintext)` chunks of
/// one region, in input order. Equal-length chunks are MACed four per
/// SHA-256 pass under HMAC ([`AuthEncKey::seal_batch`]).
#[must_use]
pub fn seal_chunks(
    key: &AuthEncKey,
    region_nonce: [u8; 8],
    region_name: &str,
    chunks: &[(u32, u64, &[u8])],
) -> Vec<(Vec<u8>, [u8; CHUNK_TAG_LEN])> {
    let ads: Vec<Vec<u8>> = chunks
        .iter()
        .map(|&(idx, epoch, _)| chunk_ad(region_name, idx, epoch))
        .collect();
    let messages: Vec<_> = chunks
        .iter()
        .zip(&ads)
        .map(|(&(idx, epoch, plaintext), ad)| {
            (plaintext, ad.as_slice(), chunk_iv(region_nonce, idx, epoch))
        })
        .collect();
    key.seal_batch(&messages)
        .into_iter()
        .map(|sealed| (sealed.ciphertext, sealed.tag))
        .collect()
}

/// [`open_chunk`] over many `(chunk_idx, epoch, ciphertext, tag)` chunks
/// of one region, in input order. Every tag is verified before its chunk
/// is decrypted, and each chunk gets its own result.
#[must_use]
pub fn open_chunks(
    key: &AuthEncKey,
    region_nonce: [u8; 8],
    region_name: &str,
    chunks: &[(u32, u64, &[u8], &[u8; CHUNK_TAG_LEN])],
) -> Vec<Result<Vec<u8>, ShefError>> {
    let ad_ivs: Vec<(Vec<u8>, ChunkIv)> = chunks
        .iter()
        .map(|&(idx, epoch, ..)| {
            (
                chunk_ad(region_name, idx, epoch),
                chunk_iv(region_nonce, idx, epoch),
            )
        })
        .collect();
    let messages: Vec<_> = chunks
        .iter()
        .zip(&ad_ivs)
        .map(|(&(_, _, ciphertext, tag), (ad, iv))| (ad.as_slice(), &iv.0, ciphertext, tag))
        .collect();
    key.open_batch(&messages)
        .into_iter()
        .zip(chunks)
        .map(|(opened, &(idx, epoch, ..))| {
            opened.map_err(|_| integrity_violation(region_name, idx, epoch))
        })
        .collect()
}

fn integrity_violation(region_name: &str, chunk_idx: u32, epoch: u64) -> ShefError {
    ShefError::IntegrityViolation(format!(
        "chunk {chunk_idx} of region '{region_name}' failed authentication at epoch {epoch}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_crypto::authenc::MacAlgorithm;

    fn key() -> AuthEncKey {
        AuthEncKey::from_bytes([7u8; 32], MacAlgorithm::HmacSha256)
    }

    #[test]
    fn seal_open_round_trip() {
        let k = key();
        let (ct, tag) = seal_chunk(&k, [1; 8], "weights", 5, 0, b"chunk payload");
        let pt = open_chunk(&k, [1; 8], "weights", 5, 0, &ct, &tag).unwrap();
        assert_eq!(pt, b"chunk payload");
    }

    #[test]
    fn spoofing_detected() {
        let k = key();
        let (mut ct, tag) = seal_chunk(&k, [1; 8], "r", 0, 0, &[0xaa; 64]);
        ct[10] ^= 1;
        assert!(matches!(
            open_chunk(&k, [1; 8], "r", 0, 0, &ct, &tag),
            Err(ShefError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn splicing_detected() {
        // Chunk 3's ciphertext presented as chunk 4 must fail.
        let k = key();
        let (ct, tag) = seal_chunk(&k, [1; 8], "r", 3, 0, &[0xbb; 64]);
        assert!(open_chunk(&k, [1; 8], "r", 4, 0, &ct, &tag).is_err());
        // Cross-region splice must fail too.
        assert!(open_chunk(&k, [1; 8], "other", 3, 0, &ct, &tag).is_err());
    }

    #[test]
    fn replay_detected_via_epoch() {
        // Old-epoch ciphertext presented at a newer epoch must fail.
        let k = key();
        let (ct0, tag0) = seal_chunk(&k, [1; 8], "r", 0, 0, &[0xcc; 64]);
        assert!(open_chunk(&k, [1; 8], "r", 0, 1, &ct0, &tag0).is_err());
        // And the fresh epoch verifies.
        let (ct1, tag1) = seal_chunk(&k, [1; 8], "r", 0, 1, &[0xdd; 64]);
        assert_eq!(
            open_chunk(&k, [1; 8], "r", 0, 1, &ct1, &tag1).unwrap(),
            vec![0xdd; 64]
        );
    }

    #[test]
    fn epochs_change_keystream() {
        let k = key();
        let (ct0, _) = seal_chunk(&k, [1; 8], "r", 0, 1, &[0; 64]);
        let (ct1, _) = seal_chunk(&k, [1; 8], "r", 0, 2, &[0; 64]);
        assert_ne!(ct0, ct1);
    }

    #[test]
    fn pmac_variant_interoperates() {
        let k = AuthEncKey::from_bytes([7u8; 32], MacAlgorithm::PmacAes);
        let (ct, tag) = seal_chunk(&k, [2; 8], "w", 9, 3, b"pmac chunk");
        assert_eq!(
            open_chunk(&k, [2; 8], "w", 9, 3, &ct, &tag).unwrap(),
            b"pmac chunk"
        );
    }
}
