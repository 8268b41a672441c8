//! Data-Owner-side (client) encryption.
//!
//! "The Data Owner then encrypts sensitive input data in a secure
//! location using the appropriate Data Encryption Key" (§4). The client
//! produces exactly the on-DRAM chunk format the Shield expects
//! ([`super::chunk`]), so the untrusted host can DMA ciphertext and tags
//! straight into place; and it can verify/decrypt region contents the
//! accelerator produced.

use core::ops::Range;

use super::chunk::{ChunkCipher, CHUNK_TAG_LEN};
use super::config::RegionConfig;
use super::keys::DataEncryptionKey;
use crate::ShefError;

/// An encrypted region image ready for DMA: ciphertext for the data
/// range plus the packed tag array for the region's tag-arena slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedRegion {
    /// Ciphertext, same length as the plaintext (laid out at
    /// `region.range.start`).
    pub ciphertext: Vec<u8>,
    /// Concatenated 16-byte chunk tags (laid out at the region's tag
    /// base).
    pub tags: Vec<u8>,
}

/// Encrypts a full region image at write-epoch `epoch` (0 for initial
/// provisioning).
///
/// # Panics
///
/// Panics if `plaintext` is longer than the region.
#[must_use]
pub fn encrypt_region(
    dek: &DataEncryptionKey,
    region: &RegionConfig,
    plaintext: &[u8],
    epoch: u64,
) -> EncryptedRegion {
    encrypt_region_at(dek, region, 0, plaintext, epoch)
}

/// Like [`encrypt_region`], but for a window starting at chunk
/// `first_chunk` (e.g. one file slot of a larger store region).
///
/// # Panics
///
/// Also panics if the window's chunks do not all lie inside the region.
#[must_use]
pub fn encrypt_region_at(
    dek: &DataEncryptionKey,
    region: &RegionConfig,
    first_chunk: u32,
    plaintext: &[u8],
    epoch: u64,
) -> EncryptedRegion {
    assert!(
        plaintext.len() as u64 <= region.range.len,
        "plaintext ({}) exceeds region '{}' ({} bytes)",
        plaintext.len(),
        region.name,
        region.range.len
    );
    // A partial image must still be chunk-aligned: the Shield verifies
    // whole C_mem chunks, so a short final chunk anywhere but the region
    // end would never authenticate on the device.
    assert!(
        plaintext.len().is_multiple_of(region.engine_set.chunk_size)
            || plaintext.len() as u64 == region.range.len,
        "plaintext for region '{}' must be a multiple of the {}-byte chunk size \
         (pad it; the Shield authenticates whole chunks)",
        region.name,
        region.engine_set.chunk_size
    );
    let window = chunk_window(region, first_chunk, plaintext.len()).unwrap_or_else(|| {
        panic!(
            "chunks from {first_chunk} for {} bytes exceed region '{}'",
            plaintext.len(),
            region.name
        )
    });
    // One copy of the plaintext becomes the ciphertext image, sealed
    // where it lies; the tags land straight in the tag array.
    let mut ciphertext = plaintext.to_vec();
    let mut tags = vec![0u8; window.len() * CHUNK_TAG_LEN];
    let (tag_slots, _) = tags.as_chunks_mut::<CHUNK_TAG_LEN>();
    ChunkCipher::for_region(dek, region).seal(
        window
            .zip(ciphertext.chunks_mut(region.engine_set.chunk_size))
            .zip(tag_slots)
            .map(|((idx, buf), tag)| (idx, epoch, buf, tag)),
    );
    EncryptedRegion { ciphertext, tags }
}

/// Verifies and decrypts a region image read back from device memory.
///
/// `epochs` gives the expected write epoch per chunk; pass
/// [`uniform_epochs`] when all chunks share one epoch.
///
/// # Errors
///
/// Returns [`ShefError::IntegrityViolation`] if any chunk fails
/// authentication (spoofed/spliced/replayed output).
pub fn decrypt_region(
    dek: &DataEncryptionKey,
    region: &RegionConfig,
    ciphertext: &[u8],
    tags: &[u8],
    epochs: &dyn Fn(u32) -> u64,
) -> Result<Vec<u8>, ShefError> {
    decrypt_region_at(dek, region, 0, ciphertext, tags, epochs)
}

/// Like [`decrypt_region`], but for a window starting at chunk
/// `first_chunk`.
///
/// # Errors
///
/// Same conditions as [`decrypt_region`], and
/// [`ShefError::Malformed`] if the window's chunks do not all lie inside
/// the region.
pub fn decrypt_region_at(
    dek: &DataEncryptionKey,
    region: &RegionConfig,
    first_chunk: u32,
    ciphertext: &[u8],
    tags: &[u8],
    epochs: &dyn Fn(u32) -> u64,
) -> Result<Vec<u8>, ShefError> {
    let Some(window) = chunk_window(region, first_chunk, ciphertext.len()) else {
        return Err(ShefError::Malformed(format!(
            "chunks from {first_chunk} for {} bytes exceed region '{}'",
            ciphertext.len(),
            region.name
        )));
    };
    let chunk = region.engine_set.chunk_size;
    let n_chunks = window.len();
    if tags.len() < n_chunks * CHUNK_TAG_LEN {
        return Err(ShefError::Malformed(format!(
            "tag array too short: {} chunks need {} bytes, got {}",
            n_chunks,
            n_chunks * CHUNK_TAG_LEN,
            tags.len()
        )));
    }
    let cipher = ChunkCipher::for_region(dek, region);
    let (tags, _) = tags.as_chunks::<CHUNK_TAG_LEN>();
    let mut plaintext = ciphertext.to_vec();
    let verdicts = cipher.open(
        window
            .clone()
            .zip(plaintext.chunks_mut(chunk))
            .zip(tags)
            .map(|((idx, buf), tag)| (idx, epochs(idx), buf, tag)),
    );
    match window.zip(verdicts).find(|(_, verdict)| verdict.is_err()) {
        Some((idx, _)) => Err(cipher.integrity_violation(idx, epochs(idx))),
        None => Ok(plaintext),
    }
}

/// The chunk indices `first_chunk ..` covering `len` bytes, if they all
/// lie inside `region`. The arithmetic is checked: a wrapped index would
/// reuse another chunk's IV under the same key.
fn chunk_window(region: &RegionConfig, first_chunk: u32, len: usize) -> Option<Range<u32>> {
    let chunk = region.engine_set.chunk_size;
    let n = u32::try_from(len.div_ceil(chunk)).ok()?;
    let end = first_chunk.checked_add(n)?;
    (u64::from(end) <= region.range.len.div_ceil(chunk as u64)).then_some(first_chunk..end)
}

/// Epoch function for regions whose chunks all share one epoch.
pub fn uniform_epochs(epoch: u64) -> impl Fn(u32) -> u64 {
    move |_| epoch
}

/// Number of tag bytes for a plaintext of `len` bytes under `chunk_size`.
#[must_use]
pub fn tag_bytes_for(len: usize, chunk_size: usize) -> usize {
    len.div_ceil(chunk_size) * CHUNK_TAG_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::config::{EngineSetConfig, MemRange};

    fn region() -> RegionConfig {
        RegionConfig {
            name: "input".into(),
            range: MemRange::new(0, 8192),
            engine_set: EngineSetConfig::default(),
        }
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        let data: Vec<u8> = (0..5120u32).map(|i| (i % 253) as u8).collect();
        let enc = encrypt_region(&dek, &r, &data, 0);
        assert_eq!(enc.ciphertext.len(), data.len());
        assert_eq!(enc.tags.len(), tag_bytes_for(data.len(), 512));
        let dec = decrypt_region(&dek, &r, &enc.ciphertext, &enc.tags, &uniform_epochs(0)).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        let mut enc = encrypt_region(&dek, &r, &[7u8; 1024], 0);
        enc.ciphertext[600] ^= 1;
        assert!(decrypt_region(&dek, &r, &enc.ciphertext, &enc.tags, &uniform_epochs(0)).is_err());
    }

    #[test]
    fn wrong_epoch_detected() {
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        let enc = encrypt_region(&dek, &r, &[7u8; 1024], 0);
        assert!(decrypt_region(&dek, &r, &enc.ciphertext, &enc.tags, &uniform_epochs(1)).is_err());
    }

    #[test]
    fn short_tag_array_rejected() {
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        let enc = encrypt_region(&dek, &r, &[7u8; 1024], 0);
        assert!(matches!(
            decrypt_region(
                &dek,
                &r,
                &enc.ciphertext,
                &enc.tags[..16],
                &uniform_epochs(0)
            ),
            Err(ShefError::Malformed(_))
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn oversized_plaintext_panics() {
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        let _ = encrypt_region(&dek, &r, &vec![0u8; 10_000], 0);
    }

    #[test]
    #[should_panic(expected = "exceed region")]
    fn encrypt_window_past_the_region_panics() {
        // 8192 B of 512 B chunks is 16 chunks; chunks 14..17 overrun it.
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        let _ = encrypt_region_at(&dek, &r, 14, &[0u8; 3 * 512], 0);
    }

    #[test]
    fn decrypt_window_past_the_region_is_malformed() {
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        let enc = encrypt_region_at(&dek, &r, 14, &[7u8; 1024], 0);
        let uniform = uniform_epochs(0);
        let decrypt =
            |first| decrypt_region_at(&dek, &r, first, &enc.ciphertext, &enc.tags, &uniform);
        assert_eq!(decrypt(14).unwrap(), vec![7u8; 1024]);
        for first in [15, u32::MAX] {
            assert!(
                matches!(decrypt(first), Err(ShefError::Malformed(_))),
                "window from chunk {first}"
            );
        }
    }

    #[test]
    fn per_chunk_epochs() {
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let r = region();
        // Chunk 0 at epoch 2, chunk 1 at epoch 5.
        let cipher = ChunkCipher::for_region(&dek, &r);
        let mut ct: Vec<u8> = [[1u8; 512], [2u8; 512]].concat();
        let mut tags = vec![0u8; 2 * CHUNK_TAG_LEN];
        let (tag_slots, _) = tags.as_chunks_mut::<CHUNK_TAG_LEN>();
        cipher.seal(
            ct.chunks_mut(512)
                .zip(tag_slots)
                .zip([(0, 2), (1, 5)])
                .map(|((buf, tag), (idx, epoch))| (idx, epoch, buf, tag)),
        );
        let epochs = |i: u32| if i == 0 { 2 } else { 5 };
        let out = decrypt_region(&dek, &r, &ct, &tags, &epochs).unwrap();
        assert_eq!(&out[..512], &[1u8; 512][..]);
        assert_eq!(&out[512..], &[2u8; 512][..]);
    }
}
