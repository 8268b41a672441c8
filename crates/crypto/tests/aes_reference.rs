//! Differential tests of the fixsliced AES and the modes built on it
//! against a byte-wise FIPS-197 reference.
//!
//! The reference is the textbook cipher: S-box table lookups, ShiftRows
//! as a byte permutation, MixColumns with `xtime`. It is variable-time
//! and lives here, outside `src/`, only as an oracle.

use proptest::prelude::*;
use shef_crypto::aes::{sbox, Aes};
use shef_crypto::ctr::{ctr_xor, ChunkIv};
use shef_crypto::pmac::{pmac, pmac_multi};

#[rustfmt::skip]
const FIPS_SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Byte-wise FIPS-197 encryption of one block under a 16- or 32-byte key.
fn reference_encrypt(key: &[u8], block: &[u8; 16]) -> [u8; 16] {
    let nk = key.len() / 4;
    let rounds = nk + 6;
    // Key expansion (FIPS 197 §5.2), one 4-byte word per entry.
    let mut w: Vec<[u8; 4]> = key.chunks(4).map(|c| c.try_into().unwrap()).collect();
    let mut rcon = 1u8;
    for i in nk..4 * (rounds + 1) {
        let mut t = w[i - 1];
        if i % nk == 0 {
            t = [t[1], t[2], t[3], t[0]].map(|b| FIPS_SBOX[b as usize]);
            t[0] ^= rcon;
            rcon = xtime(rcon);
        } else if nk > 6 && i % nk == 4 {
            t = t.map(|b| FIPS_SBOX[b as usize]);
        }
        w.push(core::array::from_fn(|k| w[i - nk][k] ^ t[k]));
    }
    let add_round_key = |s: &mut [u8; 16], r: usize| {
        for (i, b) in s.iter_mut().enumerate() {
            *b ^= w[4 * r + i / 4][i % 4];
        }
    };
    // Column-major state: byte i is row i % 4, column i / 4.
    let mut s = *block;
    add_round_key(&mut s, 0);
    for round in 1..=rounds {
        let shifted = s;
        for (i, b) in s.iter_mut().enumerate() {
            let (row, col) = (i % 4, i / 4);
            *b = FIPS_SBOX[shifted[row + 4 * ((col + row) % 4)] as usize];
        }
        if round < rounds {
            for col in s.chunks_exact_mut(4) {
                let c = [col[0], col[1], col[2], col[3]];
                let all = c[0] ^ c[1] ^ c[2] ^ c[3];
                for row in 0..4 {
                    col[row] = c[row] ^ all ^ xtime(c[row] ^ c[(row + 1) % 4]);
                }
            }
        }
        add_round_key(&mut s, round);
    }
    s
}

fn xtime(b: u8) -> u8 {
    (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
}

/// Reference CTR: one reference block per 16 bytes, counter `be32(i)`.
fn reference_ctr(key: &[u8], iv: &[u8; 12], data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        let mut counter = [0u8; 16];
        counter[..12].copy_from_slice(iv);
        counter[12..].copy_from_slice(&(i as u32).to_be_bytes());
        let keystream = reference_encrypt(key, &counter);
        for (d, k) in chunk.iter_mut().zip(keystream) {
            *d ^= k;
        }
    }
}

fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let v = u128::from_be_bytes(*block);
    ((v << 1) ^ if v >> 127 == 1 { 0x87 } else { 0 }).to_be_bytes()
}

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

/// Reference PMAC: the one-block-at-a-time loop over the concatenated
/// message, with the reference cipher.
fn reference_pmac(key: &[u8], data: &[u8]) -> [u8; 16] {
    let l = reference_encrypt(key, &[0u8; 16]);
    let n_full = data.len() / 16;
    let rem = data.len() % 16;
    let last_full_is_final = rem == 0 && n_full > 0;
    let parallel_blocks = n_full - usize::from(last_full_is_final);
    let mut sigma = [0u8; 16];
    let mut mask = dbl(&l);
    for block in data.chunks_exact(16).take(parallel_blocks) {
        let masked = xor16(block.try_into().unwrap(), &mask);
        sigma = xor16(&sigma, &reference_encrypt(key, &masked));
        mask = dbl(&mask);
    }
    let mut last = [0u8; 16];
    let final_mask = if last_full_is_final {
        last.copy_from_slice(&data[(n_full - 1) * 16..]);
        dbl(&dbl(&l))
    } else {
        last[..rem].copy_from_slice(&data[n_full * 16..]);
        last[rem] = 0x80;
        dbl(&dbl(&dbl(&l)))
    };
    reference_encrypt(key, &xor16(&xor16(&sigma, &last), &final_mask))
}

#[test]
fn reference_matches_fips197_appendix_c() {
    let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
    let key: [u8; 32] = core::array::from_fn(|i| i as u8);
    assert_eq!(
        reference_encrypt(&key[..16], &pt),
        Aes::new_128(&key[..16].try_into().unwrap()).encrypt_block(&pt)
    );
    assert_eq!(
        shef_crypto::to_hex(&reference_encrypt(&key, &pt)),
        "8ea2b7ca516745bfeafc49904b496089"
    );
    assert_eq!(
        shef_crypto::to_hex(&reference_encrypt(&key[..16], &pt)),
        "69c4e0d86a7b0430d8cdb78070b4c55a"
    );
}

#[test]
fn bitsliced_sbox_matches_fips_table() {
    for x in 0..=255u8 {
        assert_eq!(sbox(x), FIPS_SBOX[x as usize], "S({x:#04x})");
    }
}

/// Checks `encrypt_blocks` on every prefix of `data` (0..=40 blocks:
/// full 16-block passes, wide 13..=15-block tails and four-block tails)
/// against the reference, and `encrypt_block` on the first block.
fn check_every_block_count(
    aes: &Aes,
    key: &[u8],
    data: &[[u8; 16]; 40],
) -> Result<(), TestCaseError> {
    let expected: Vec<[u8; 16]> = data.iter().map(|b| reference_encrypt(key, b)).collect();
    prop_assert_eq!(aes.encrypt_block(&data[0]), expected[0]);
    for n in 0..=data.len() {
        let mut blocks = data[..n].to_vec();
        aes.encrypt_blocks(&mut blocks);
        prop_assert!(blocks[..] == expected[..n], "{n} blocks");
    }
    Ok(())
}

proptest! {
    #[test]
    fn aes128_matches_reference(key in any::<[u8; 16]>(), data in any::<[[u8; 16]; 40]>()) {
        check_every_block_count(&Aes::new_128(&key), &key, &data)?;
    }

    #[test]
    fn aes256_matches_reference(key in any::<[u8; 32]>(), data in any::<[[u8; 16]; 40]>()) {
        check_every_block_count(&Aes::new_256(&key), &key, &data)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ctr_matches_reference_at_every_length(key in any::<[u8; 16]>(), nonce in any::<[u8; 8]>(),
                                             idx in any::<u32>(), data in any::<[u8; 700]>()) {
        let aes = Aes::new_128(&key);
        let iv = ChunkIv::for_chunk(nonce, idx);
        let mut expected = data;
        reference_ctr(&key, &iv.0, &mut expected);
        for len in 0..=data.len() {
            let mut buf = data[..len].to_vec();
            ctr_xor(&aes, &iv, &mut buf);
            prop_assert!(buf[..] == expected[..len], "length {len}");
        }
    }
}

/// Checks `pmac` on `msg`, and `pmac_multi` on `msg` cut into three
/// parts, against the reference.
fn check_pmac(aes: &Aes, key: &[u8], msg: &[u8], cuts: (u16, u16)) -> Result<(), TestCaseError> {
    let len = msg.len();
    let expected = reference_pmac(key, msg);
    prop_assert!(pmac(aes, msg) == expected, "length {len}");
    let a = usize::from(cuts.0) % (len + 1);
    let b = a + usize::from(cuts.1) % (len - a + 1);
    let parts = pmac_multi(aes, &[&msg[..a], &msg[a..b], &msg[b..]]);
    prop_assert!(parts == expected, "length {len} cut at {a}/{b}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pmac_matches_reference_at_every_length(key in any::<[u8; 16]>(), data in any::<[u8; 600]>(),
                                              cuts in any::<(u16, u16)>()) {
        let aes = Aes::new_128(&key);
        for len in 0..=data.len() {
            check_pmac(&aes, &key, &data[..len], cuts)?;
        }
    }

    #[test]
    fn pmac_matches_reference_around_4096(key in any::<[u8; 16]>(), data in any::<[u8; 4097]>(),
                                          cuts in any::<(u16, u16)>()) {
        // A 4 KiB chunk queues 255 blocks: 15 full passes and a wide
        // 15-block tail; one byte either side moves the last block.
        let aes = Aes::new_128(&key);
        for len in [4095, 4096, 4097] {
            check_pmac(&aes, &key, &data[..len], cuts)?;
        }
    }
}
