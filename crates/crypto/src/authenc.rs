//! Authenticated encryption: AES-CTR with encrypt-then-MAC.
//!
//! This is the Shield's core mechanism (§5.1): "Cryptographic modules
//! that provide authenticated encryption are at the core of the Shield.
//! We use AES-CTR + HMAC modules as default" — with PMAC as the
//! configurable alternative (§6.2.4). Each sealed message carries a
//! 12-byte IV and a 16-byte truncated tag, matching the Shield's DRAM
//! layout ("each chunk is authenticated via a 16-byte MAC tag in
//! encrypt-then-MAC mode", §5.2.2).
//!
//! The MAC covers `associated_data || iv || ciphertext`, binding each
//! chunk to its address/region — the defence against splicing attacks.

use crate::aes::{Aes, AesKeySize};
use crate::ctr::{ctr_xor, ChunkIv, IV_LEN};
use crate::ghash;
use crate::hkdf;
use crate::hmac::HmacSha256;
use crate::pmac::pmac_multi_with_l;
use crate::{ct, CryptoError};

/// Tag length stored alongside each chunk.
pub const TAG_LEN: usize = 16;

/// Which MAC engine authenticates the ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MacAlgorithm {
    /// SHA-256 HMAC — the Shield default. Sequential within a chunk.
    #[default]
    HmacSha256,
    /// AES-based PMAC — parallelizable within a chunk.
    PmacAes,
    /// GHASH in a GCM-style composition — parallelizable within a chunk
    /// with a cheaper per-block operation than PMAC (§5.2.2's "simply
    /// substitute a new cryptographic engine" path).
    AesGcm,
}

impl core::fmt::Display for MacAlgorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MacAlgorithm::HmacSha256 => write!(f, "HMAC"),
            MacAlgorithm::PmacAes => write!(f, "PMAC"),
            MacAlgorithm::AesGcm => write!(f, "GCM"),
        }
    }
}

/// A sealed (encrypted and authenticated) message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// Per-message initialization vector.
    pub iv: [u8; IV_LEN],
    /// AES-CTR ciphertext.
    pub ciphertext: Vec<u8>,
    /// Truncated encrypt-then-MAC tag.
    pub tag: [u8; TAG_LEN],
}

impl Sealed {
    /// Serializes to `iv || tag || ciphertext` for transport.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(IV_LEN + TAG_LEN + self.ciphertext.len());
        out.extend_from_slice(&self.iv);
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses the `to_bytes` wire format.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `bytes` is too short to
    /// contain the IV and tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < IV_LEN + TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let iv: [u8; IV_LEN] = bytes[..IV_LEN].try_into().expect("iv slice");
        let tag: [u8; TAG_LEN] = bytes[IV_LEN..IV_LEN + TAG_LEN]
            .try_into()
            .expect("tag slice");
        Ok(Sealed {
            iv,
            tag,
            ciphertext: bytes[IV_LEN + TAG_LEN..].to_vec(),
        })
    }
}

/// One message of an [`AuthEncKey::seal_batch`], sealed where it lies.
pub struct SealInPlace<'a> {
    /// The associated data the tag binds.
    pub ad: &'a [u8],
    /// The message's IV.
    pub iv: ChunkIv,
    /// Plaintext going in, ciphertext coming out.
    pub buf: &'a mut [u8],
    /// Where the tag is written.
    pub tag: &'a mut [u8; TAG_LEN],
}

/// One message of an [`AuthEncKey::open_batch`], opened where it lies.
pub struct OpenInPlace<'a> {
    /// The associated data the tag binds.
    pub ad: &'a [u8],
    /// The message's IV.
    pub iv: ChunkIv,
    /// Ciphertext going in; plaintext coming out if the tag verifies,
    /// the untouched ciphertext if it does not.
    pub buf: &'a mut [u8],
    /// The tag to verify.
    pub tag: &'a [u8; TAG_LEN],
}

/// A symmetric authenticated-encryption key.
///
/// Internally derives independent encryption and MAC subkeys from the
/// master key via HKDF, as a hardware Shield would provision separate
/// keys into its AES and MAC engines.
#[derive(Clone)]
pub struct AuthEncKey {
    enc: Aes,
    /// The HMAC key with both pads absorbed.
    hmac: HmacSha256,
    mac_aes: Aes,
    /// `E_K(0^128)` under the MAC-AES key: PMAC's `L` and GCM's `H`.
    mac_zero_block: [u8; 16],
    algorithm: MacAlgorithm,
    seal_counter: u64,
    master: [u8; 32],
}

impl core::fmt::Debug for AuthEncKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AuthEncKey")
            .field("algorithm", &self.algorithm)
            .finish_non_exhaustive()
    }
}

impl AuthEncKey {
    /// Builds a key whose AES engines use AES-128 (Shield default).
    #[must_use]
    pub fn from_bytes(master: [u8; 32], algorithm: MacAlgorithm) -> Self {
        Self::with_key_size(master, algorithm, AesKeySize::Aes128)
    }

    /// Builds a key selecting the AES variant, mirroring the Shield's
    /// compile-time key-size parameter.
    #[must_use]
    pub fn with_key_size(master: [u8; 32], algorithm: MacAlgorithm, key_size: AesKeySize) -> Self {
        let enc_key = hkdf::derive(&[], &master, b"shef.authenc.enc", key_size.key_len());
        let mac_key = hkdf::derive_key32(&[], &master, b"shef.authenc.mac");
        let mac_aes_key: [u8; 16] = mac_key[..16].try_into().expect("16 bytes");
        let mac_aes = Aes::new_128(&mac_aes_key);
        AuthEncKey {
            enc: Aes::new(&enc_key),
            hmac: HmacSha256::new(&mac_key),
            mac_zero_block: mac_aes.encrypt_block(&[0u8; 16]),
            mac_aes,
            algorithm,
            seal_counter: 0,
            master,
        }
    }

    /// The MAC algorithm in use.
    #[must_use]
    pub fn algorithm(&self) -> MacAlgorithm {
        self.algorithm
    }

    /// Raw master key bytes (needed when a key must be provisioned into a
    /// remote Shield, e.g. the Data Encryption Key inside a Load Key).
    #[must_use]
    pub fn master_bytes(&self) -> [u8; 32] {
        self.master
    }

    /// Seals `plaintext`, binding it to `associated_data`, with an
    /// automatically chosen fresh IV.
    pub fn seal(&mut self, plaintext: &[u8], associated_data: &[u8]) -> Sealed {
        let mut iv = [0u8; IV_LEN];
        iv[..8].copy_from_slice(&self.seal_counter.to_be_bytes());
        iv[8..].copy_from_slice(&0xa5a5_5a5au32.to_be_bytes());
        self.seal_counter += 1;
        self.seal_with_iv(plaintext, associated_data, ChunkIv(iv))
    }

    /// Seals with a caller-chosen IV. The Shield uses this form: chunk
    /// IVs are derived from region nonce, chunk index and write epoch.
    ///
    /// Reusing an IV for two different plaintexts under the same key
    /// voids confidentiality, exactly as in hardware; the Shield's
    /// counter discipline prevents it.
    #[must_use]
    pub fn seal_with_iv(&self, plaintext: &[u8], associated_data: &[u8], iv: ChunkIv) -> Sealed {
        let mut ciphertext = plaintext.to_vec();
        ctr_xor(&self.enc, &iv, &mut ciphertext);
        let tag = self.compute_tag(associated_data, &iv.0, &ciphertext);
        Sealed {
            iv: iv.0,
            ciphertext,
            tag,
        }
    }

    /// Opens a sealed message, verifying its tag against
    /// `associated_data`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if authentication fails; no
    /// plaintext is released in that case.
    pub fn open(&self, sealed: &Sealed, associated_data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut plaintext = sealed.ciphertext.clone();
        self.open_in_place(&sealed.iv, associated_data, &mut plaintext, &sealed.tag)?;
        Ok(plaintext)
    }

    /// Verifies `tag` over `buf` and decrypts `buf` in place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if authentication fails; `buf`
    /// is left holding the ciphertext in that case.
    pub fn open_in_place(
        &self,
        iv: &[u8; IV_LEN],
        associated_data: &[u8],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), CryptoError> {
        let expected = self.compute_tag(associated_data, iv, buf);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::TagMismatch);
        }
        ctr_xor(&self.enc, &ChunkIv(*iv), buf);
        Ok(())
    }

    /// Seals many messages where they lie: encrypts each buffer and
    /// writes its tag. Each result equals [`AuthEncKey::seal_with_iv`]'s
    /// for the same message. HMAC tags are computed four per SHA-256
    /// pass ([`HmacSha256::mac_batch`]).
    pub fn seal_batch(&self, messages: &mut [SealInPlace<'_>]) {
        for m in messages.iter_mut() {
            ctr_xor(&self.enc, &m.iv, m.buf);
        }
        let (parts, mut tags): (Vec<[&[u8]; 3]>, Vec<&mut [u8; TAG_LEN]>) = messages
            .iter_mut()
            .map(|m| ([m.ad, &m.iv.0[..], &*m.buf], &mut *m.tag))
            .unzip();
        self.tags_of(&parts, |i, tag| *tags[i] = tag);
    }

    /// Opens many messages where they lie, returning one verdict per
    /// message in input order; each equals
    /// [`AuthEncKey::open_in_place`]'s. Every tag is checked in constant
    /// time before its buffer is decrypted, and a failed message keeps its
    /// ciphertext and does not affect the others.
    #[must_use]
    pub fn open_batch(&self, messages: &mut [OpenInPlace<'_>]) -> Vec<Result<(), CryptoError>> {
        let mut verdicts = vec![Ok(()); messages.len()];
        let parts: Vec<[&[u8]; 3]> = messages
            .iter()
            .map(|m| [m.ad, &m.iv.0[..], &*m.buf])
            .collect();
        self.tags_of(&parts, |i, expected| {
            if !ct::eq(&expected, messages[i].tag) {
                verdicts[i] = Err(CryptoError::TagMismatch);
            }
        });
        for (m, verdict) in messages.iter_mut().zip(&verdicts) {
            if verdict.is_ok() {
                ctr_xor(&self.enc, &m.iv, m.buf);
            }
        }
        verdicts
    }

    /// Calls `emit(i, tag)` with [`AuthEncKey::compute_tag`] over each
    /// `[ad, iv, ciphertext]` message.
    fn tags_of(&self, messages: &[[&[u8]; 3]], mut emit: impl FnMut(usize, [u8; TAG_LEN])) {
        if self.algorithm == MacAlgorithm::HmacSha256 {
            self.hmac.mac_batch(messages, |i, full| {
                emit(i, full[..TAG_LEN].try_into().expect("truncate to 16"));
            });
            return;
        }
        for (i, &[ad, iv, ciphertext]) in messages.iter().enumerate() {
            let iv: &[u8; IV_LEN] = iv.try_into().expect("IV_LEN-byte iv");
            emit(i, self.compute_tag(ad, iv, ciphertext));
        }
    }

    /// Computes the 16-byte tag over `ad || iv || ciphertext`.
    #[must_use]
    pub fn compute_tag(&self, ad: &[u8], iv: &[u8; IV_LEN], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        match self.algorithm {
            MacAlgorithm::HmacSha256 => {
                let full = self.hmac.mac_multi(&[ad, iv, ciphertext]);
                full[..TAG_LEN].try_into().expect("truncate to 16")
            }
            MacAlgorithm::PmacAes => {
                // Length-prefix the associated data so (ad, ct) boundaries
                // are unambiguous.
                let len = (ad.len() as u64).to_be_bytes();
                pmac_multi_with_l(
                    &self.mac_aes,
                    &self.mac_zero_block,
                    &[&len, ad, iv, ciphertext],
                )
            }
            MacAlgorithm::AesGcm => {
                // GCM tag composition over the already-produced CTR
                // ciphertext: T = E_K(J0(iv)) ⊕ GHASH_H(ad, ct), with
                // H = E_K(0^128) from the dedicated MAC-AES engine.
                let s = ghash::ghash(&self.mac_zero_block, ad, ciphertext);
                let mut j0 = [0u8; 16];
                j0[..IV_LEN].copy_from_slice(iv);
                j0[15] = 1;
                let mask = self.mac_aes.encrypt_block(&j0);
                let mut tag = [0u8; TAG_LEN];
                for i in 0..TAG_LEN {
                    tag[i] = s[i] ^ mask[i];
                }
                tag
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(alg: MacAlgorithm) -> AuthEncKey {
        AuthEncKey::from_bytes([0x5au8; 32], alg)
    }

    #[test]
    fn round_trip_hmac() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let sealed = k.seal(b"secret payload", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), b"secret payload");
    }

    #[test]
    fn round_trip_pmac() {
        let mut k = key(MacAlgorithm::PmacAes);
        let sealed = k.seal(b"secret payload", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), b"secret payload");
    }

    #[test]
    fn round_trip_gcm() {
        let mut k = key(MacAlgorithm::AesGcm);
        let sealed = k.seal(b"secret payload", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), b"secret payload");
    }

    #[test]
    fn mac_algorithms_produce_distinct_tags() {
        // Same key material, same message: the three engines must not
        // collide (they are independent PRFs over the same inputs).
        let iv = crate::ctr::ChunkIv([3u8; 12]);
        let tags: Vec<[u8; TAG_LEN]> = [
            MacAlgorithm::HmacSha256,
            MacAlgorithm::PmacAes,
            MacAlgorithm::AesGcm,
        ]
        .into_iter()
        .map(|alg| {
            AuthEncKey::from_bytes([0x5au8; 32], alg)
                .seal_with_iv(b"payload", b"ad", iv)
                .tag
        })
        .collect();
        assert_ne!(tags[0], tags[1]);
        assert_ne!(tags[0], tags[2]);
        assert_ne!(tags[1], tags[2]);
    }

    #[test]
    fn rejects_ciphertext_tampering() {
        for alg in [
            MacAlgorithm::HmacSha256,
            MacAlgorithm::PmacAes,
            MacAlgorithm::AesGcm,
        ] {
            let mut k = key(alg);
            let mut sealed = k.seal(b"payload", b"ad");
            sealed.ciphertext[0] ^= 1;
            assert_eq!(k.open(&sealed, b"ad"), Err(CryptoError::TagMismatch));
        }
    }

    #[test]
    fn rejects_wrong_associated_data() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let sealed = k.seal(b"payload", b"address-0x1000");
        assert_eq!(
            k.open(&sealed, b"address-0x2000"),
            Err(CryptoError::TagMismatch),
            "splicing to a different address must fail"
        );
    }

    #[test]
    fn rejects_iv_tampering() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let mut sealed = k.seal(b"payload", b"ad");
        sealed.iv[0] ^= 1;
        assert_eq!(k.open(&sealed, b"ad"), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn distinct_ivs_for_sequential_seals() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let a = k.seal(b"same", b"");
        let b = k.seal(b"same", b"");
        assert_ne!(a.iv, b.iv);
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn wire_format_round_trip() {
        let mut k = key(MacAlgorithm::PmacAes);
        let sealed = k.seal(b"wire", b"meta");
        let parsed = Sealed::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(parsed, sealed);
        assert_eq!(k.open(&parsed, b"meta").unwrap(), b"wire");
        assert!(Sealed::from_bytes(&[0u8; 5]).is_err());
    }

    #[test]
    fn empty_plaintext() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let sealed = k.seal(b"", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn aes256_variant_works() {
        let mut k =
            AuthEncKey::with_key_size([1u8; 32], MacAlgorithm::HmacSha256, AesKeySize::Aes256);
        let sealed = k.seal(b"data", b"");
        assert_eq!(k.open(&sealed, b"").unwrap(), b"data");
        // Different key size yields different ciphertext for same master.
        let k128 = AuthEncKey::from_bytes([1u8; 32], MacAlgorithm::HmacSha256);
        let sealed128 = k128.seal_with_iv(b"data", b"", crate::ctr::ChunkIv(sealed.iv));
        assert_ne!(sealed.ciphertext, sealed128.ciphertext);
    }

    #[test]
    fn keys_with_different_masters_incompatible() {
        let mut k1 = key(MacAlgorithm::HmacSha256);
        let k2 = AuthEncKey::from_bytes([0xa5u8; 32], MacAlgorithm::HmacSha256);
        let sealed = k1.seal(b"x", b"");
        assert!(k2.open(&sealed, b"").is_err());
    }
}
