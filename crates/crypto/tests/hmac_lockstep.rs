//! Differential tests for the lockstep (multi-buffer) HMAC-SHA256 path.
//!
//! `HmacSha256::mac_batch` hashes groups of four messages in lockstep and
//! sends leftovers through `mac_multi`; every tag it returns must equal
//! `mac_multi`'s for the same message, whatever the lengths, the group
//! sizes, the mix of lengths and the way a message is split into parts.
//! The batch seal and open of `AuthEncKey` must equal the one-message
//! forms under every MAC algorithm. The release profile is where LLVM
//! vectorises the lockstep kernel, so CI runs these under both profiles.

use shef_crypto::authenc::{AuthEncKey, MacAlgorithm, TAG_LEN};
use shef_crypto::ctr::ChunkIv;
use shef_crypto::hmac::HmacSha256;
use shef_crypto::CryptoError;

/// Deterministic filler bytes: message `m`, byte `i`.
fn bytes(m: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(31) ^ m.wrapping_mul(131) ^ (i >> 3)) as u8)
        .collect()
}

/// Splits `data` into three parts at two points chosen from `m`.
fn split3(data: &[u8], m: usize) -> [&[u8]; 3] {
    let a = (m * 7) % (data.len() + 1);
    let b = a + (m * 13) % (data.len() - a + 1);
    [&data[..a], &data[a..b], &data[b..]]
}

fn reference(key: &HmacSha256, messages: &[[&[u8]; 3]]) -> Vec<[u8; 32]> {
    messages.iter().map(|m| key.mac_multi(m)).collect()
}

#[test]
fn lockstep_matches_mac_multi_at_every_length_and_group_size() {
    let key = HmacSha256::new(b"lockstep key");
    for len in 0..=600 {
        let data: Vec<Vec<u8>> = (0..9).map(|m| bytes(m + len, len)).collect();
        for group in 1..=9 {
            let messages: Vec<[&[u8]; 3]> = data[..group]
                .iter()
                .enumerate()
                .map(|(m, d)| split3(d, m + len))
                .collect();
            assert_eq!(
                key.mac_batch(&messages),
                reference(&key, &messages),
                "{group} messages of {len} bytes"
            );
        }
    }
}

#[test]
fn lockstep_matches_mac_multi_on_mixed_lengths() {
    // Lengths that share a compression count without being equal (55 vs
    // 40, 119 vs 100), straddle a block boundary (55/56, 119/120), or
    // stand alone, interleaved so groups form out of input order.
    let key = HmacSha256::new(&[0xa5; 100]);
    let lens = [
        55, 0, 56, 40, 119, 512, 55, 100, 120, 512, 40, 55, 600, 512, 119, 0, 512, 3, 55, 512, 64,
        100, 100,
    ];
    let data: Vec<Vec<u8>> = lens.iter().enumerate().map(|(m, &l)| bytes(m, l)).collect();
    for n in 0..=lens.len() {
        let messages: Vec<[&[u8]; 3]> = data[..n]
            .iter()
            .enumerate()
            .map(|(m, d)| split3(d, m))
            .collect();
        assert_eq!(
            key.mac_batch(&messages),
            reference(&key, &messages),
            "first {n} messages"
        );
    }
}

#[test]
fn lockstep_accepts_any_part_count() {
    let key = HmacSha256::new(b"k");
    let data: Vec<Vec<u8>> = (0..6).map(|m| bytes(m, 300)).collect();
    let one: Vec<[&[u8]; 1]> = data.iter().map(|d| [d.as_slice()]).collect();
    let five: Vec<[&[u8]; 5]> = data
        .iter()
        .map(|d| [&d[..0], &d[..10], &d[10..200], &d[200..], &d[..0]])
        .collect();
    let expected: Vec<[u8; 32]> = data.iter().map(|d| key.mac_multi(&[d])).collect();
    assert_eq!(key.mac_batch(&one), expected);
    assert_eq!(key.mac_batch(&five), expected);
}

#[test]
fn batch_seal_and_open_match_single_message_forms() {
    for alg in [
        MacAlgorithm::HmacSha256,
        MacAlgorithm::PmacAes,
        MacAlgorithm::AesGcm,
    ] {
        let key = AuthEncKey::from_bytes([0x5a; 32], alg);
        // Two HMAC groups of four, plus a leftover.
        let plaintexts: Vec<Vec<u8>> = (0..9)
            .map(|m| bytes(m, if m < 8 { 512 } else { 64 }))
            .collect();
        let ads: Vec<Vec<u8>> = (0..9).map(|m| bytes(m + 100, 40)).collect();
        let messages: Vec<(&[u8], &[u8], ChunkIv)> = plaintexts
            .iter()
            .zip(&ads)
            .enumerate()
            .map(|(m, (pt, ad))| (pt.as_slice(), ad.as_slice(), ChunkIv([m as u8; 12])))
            .collect();
        let sealed = key.seal_batch(&messages);
        for (s, &(pt, ad, iv)) in sealed.iter().zip(&messages) {
            assert_eq!(*s, key.seal_with_iv(pt, ad, iv), "{alg}");
        }

        // Tamper with one message in the middle of an HMAC group: it alone
        // fails, and its neighbours still open.
        let mut tags: Vec<[u8; TAG_LEN]> = sealed.iter().map(|s| s.tag).collect();
        tags[5][0] ^= 1;
        let opened = key.open_batch(
            &sealed
                .iter()
                .zip(&ads)
                .zip(&tags)
                .map(|((s, ad), tag)| (ad.as_slice(), &s.iv, s.ciphertext.as_slice(), tag))
                .collect::<Vec<_>>(),
        );
        for (m, result) in opened.into_iter().enumerate() {
            if m == 5 {
                assert_eq!(result, Err(CryptoError::TagMismatch), "{alg}");
            } else {
                assert_eq!(
                    result.as_deref(),
                    Ok(&plaintexts[m][..]),
                    "{alg}, message {m}"
                );
            }
        }
    }
}
