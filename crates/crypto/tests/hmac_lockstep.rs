//! Differential tests for the lockstep (multi-buffer) HMAC-SHA256 path.
//!
//! `HmacSha256::mac_batch` hashes groups of four messages in lockstep and
//! sends leftovers through `mac_multi`; it must emit every message's tag
//! exactly once, equal to `mac_multi`'s, whatever the lengths, the group
//! sizes, the mix of lengths and the way a message is split into parts.
//! The in-place batch seal and open of `AuthEncKey` must equal the
//! one-message forms under every MAC algorithm, and a message that fails
//! to open must keep its ciphertext. The release profile is where LLVM
//! vectorises the lockstep kernel, so CI runs these under both profiles.

use shef_crypto::authenc::{AuthEncKey, MacAlgorithm, OpenInPlace, SealInPlace, TAG_LEN};
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

/// `mac_batch`'s tags in input order, checking each is emitted once.
fn batch<const P: usize>(key: &HmacSha256, messages: &[[&[u8]; P]]) -> Vec<[u8; 32]> {
    let mut tags = vec![None; messages.len()];
    key.mac_batch(messages, |i, tag| {
        assert!(tags[i].replace(tag).is_none(), "message {i} emitted twice");
    });
    tags.into_iter()
        .enumerate()
        .map(|(i, tag)| tag.unwrap_or_else(|| panic!("message {i} never emitted")))
        .collect()
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
                batch(&key, &messages),
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
            batch(&key, &messages),
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
    assert_eq!(batch(&key, &one), expected);
    assert_eq!(batch(&key, &five), expected);
}

#[test]
fn batch_seal_and_open_match_single_message_forms() {
    for alg in [
        MacAlgorithm::HmacSha256,
        MacAlgorithm::PmacAes,
        MacAlgorithm::AesGcm,
    ] {
        let key = AuthEncKey::from_bytes([0x5a; 32], alg);
        // Lengths on either side of the SHA-256 padding boundary and the
        // AES block, in groups that form zero, one and two lockstep groups.
        for len in [0usize, 1, 15, 16, 17, 55, 56, 64, 100, 512, 600] {
            for group in 1..=9 {
                let plaintexts: Vec<Vec<u8>> = (0..group)
                    .map(|m| bytes(m + len, if m == 8 { 64 } else { len }))
                    .collect();
                let ads: Vec<Vec<u8>> = (0..group).map(|m| bytes(m + 100, 40)).collect();
                let ivs: Vec<ChunkIv> = (0..group).map(|m| ChunkIv([m as u8; 12])).collect();
                let mut bufs = plaintexts.clone();
                let mut tags = vec![[0u8; TAG_LEN]; group];
                let mut seals: Vec<SealInPlace<'_>> = bufs
                    .iter_mut()
                    .zip(&mut tags)
                    .zip(ads.iter().zip(&ivs))
                    .map(|((buf, tag), (ad, &iv))| SealInPlace { ad, iv, buf, tag })
                    .collect();
                key.seal_batch(&mut seals);
                for m in 0..group {
                    let single = key.seal_with_iv(&plaintexts[m], &ads[m], ivs[m]);
                    assert_eq!(bufs[m], single.ciphertext, "{alg}, {group} x {len} B, #{m}");
                    assert_eq!(tags[m], single.tag, "{alg}, {group} x {len} B, #{m}");
                }

                // Tamper with the middle message: it alone fails, keeps
                // its ciphertext, and its neighbours still open.
                let bad = group / 2;
                tags[bad][0] ^= 1;
                let ciphertexts = bufs.clone();
                let mut opens: Vec<OpenInPlace<'_>> = bufs
                    .iter_mut()
                    .zip(&tags)
                    .zip(ads.iter().zip(&ivs))
                    .map(|((buf, tag), (ad, &iv))| OpenInPlace { ad, iv, buf, tag })
                    .collect();
                let verdicts = key.open_batch(&mut opens);
                for m in 0..group {
                    if m == bad {
                        assert_eq!(verdicts[m], Err(CryptoError::TagMismatch), "{alg}");
                        assert_eq!(
                            bufs[m], ciphertexts[m],
                            "{alg}: failed open keeps ciphertext"
                        );
                    } else {
                        assert_eq!(verdicts[m], Ok(()), "{alg}, {group} x {len} B, #{m}");
                        assert_eq!(bufs[m], plaintexts[m], "{alg}, {group} x {len} B, #{m}");
                    }
                }
            }
        }
    }
}
