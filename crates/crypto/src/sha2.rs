//! SHA-256 and SHA-512 (FIPS 180-4).
//!
//! SHA-256 is the compression core of the Shield's HMAC engine and of the
//! Bitcoin accelerator; SHA-512 is required by Ed25519. Both expose an
//! incremental API because the Security Kernel hashes bitstreams that are
//! streamed out of the boot medium.
//!
//! # Example
//!
//! ```
//! use shef_crypto::sha2::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     shef_crypto::to_hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

// The SHA-256 word operations, schedule step and round must inline into
// the compression: with plain inlining hints LLVM leaves calls in them,
// and a call inside `compress4`'s lane loop keeps it from being
// vectorised.
#![allow(clippy::inline_always)]

/// Number of bytes in a SHA-256 digest.
pub const SHA256_DIGEST_LEN: usize = 32;
/// Number of bytes in a SHA-256 input block (one compression).
pub const SHA256_BLOCK_LEN: usize = 64;
/// Number of bytes in a SHA-512 digest.
pub const SHA512_DIGEST_LEN: usize = 64;
/// Number of bytes in a SHA-512 input block.
pub const SHA512_BLOCK_LEN: usize = 128;

const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; SHA256_BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0; SHA256_BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; SHA256_DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (SHA256_BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == SHA256_BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= SHA256_BLOCK_LEN {
            let (block, rest) = input.split_at(SHA256_BLOCK_LEN);
            let mut b = [0u8; SHA256_BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Consumes the hasher, returning the digest.
    pub fn finalize(mut self) -> [u8; SHA256_DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeros up to 56 mod 64, then the 64-bit length: one update.
        let fill = 1 + (SHA256_BLOCK_LEN + 55 - self.buffered) % SHA256_BLOCK_LEN;
        let mut pad = [0u8; SHA256_BLOCK_LEN + 8];
        pad[0] = 0x80;
        pad[fill..fill + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..fill + 8]);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; SHA256_DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Number of 64-byte compression invocations needed to hash `len` bytes
    /// (including padding). Used by the Shield timing model.
    #[must_use]
    pub fn compressions_for_len(len: usize) -> u64 {
        // Padding adds 1 byte of 0x80 plus an 8-byte length, rounded up to
        // a full block.
        ((len as u64) + 1 + 8).div_ceil(SHA256_BLOCK_LEN as u64)
    }

    /// The chaining state and byte count of a hasher that has absorbed
    /// whole blocks only: the starting point of HMAC's cached pads.
    pub(crate) fn midstate(&self) -> ([u32; 8], u64) {
        debug_assert_eq!(self.buffered, 0, "midstate on a block boundary");
        (self.state, self.total_len)
    }

    fn compress(&mut self, block: &[u8; SHA256_BLOCK_LEN]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        compress_words(&mut self.state, &mut w);
    }
}

/// Compresses one block into each of four independent SHA-256 states.
///
/// `state[j][l]` is word `j` of lane `l`'s chaining state, and lane `l`
/// absorbs `blocks[l]`: the multi-buffer layout of Gueron & Krasnov
/// (2012). The body is one loop over the lanes around the scalar
/// [`compress_words`]. The message words are transposed first, so every
/// load and store in that loop is lane-adjacent, and LLVM's loop
/// vectoriser runs the four iterations as one pass of SSE2 instructions
/// (`paddd`, and each rotate as `psrld`/`pslld`/`por`). Under the fat-LTO
/// release profile the vectoriser runs at link time, so the object code
/// to inspect is the linked binary's, not the crate's `--emit asm`.
pub(crate) fn compress4(state: &mut [[u32; 4]; 8], blocks: &[[u8; SHA256_BLOCK_LEN]; 4]) {
    let mut w4 = [[0u32; 4]; 16];
    for (j, word) in w4.iter_mut().enumerate() {
        for (lane, block) in word.iter_mut().zip(blocks) {
            *lane = u32::from_be_bytes(block[4 * j..4 * j + 4].try_into().expect("4 bytes"));
        }
    }
    for l in 0..4 {
        let mut s = [0u32; 8];
        for j in 0..8 {
            s[j] = state[j][l];
        }
        let mut w = [0u32; 16];
        for j in 0..16 {
            w[j] = w4[j][l];
        }
        compress_words(&mut s, &mut w);
        for j in 0..8 {
            state[j][l] = s[j];
        }
    }
}

/// Computes `W[i]` into `w[i & 15]`, which holds `W[i - 16]` until then:
/// the message schedule rolls through 16 words in place.
#[inline(always)]
fn schedule(w: &mut [u32; 16], i: usize) {
    let s0 = sigma(w[(i + 1) & 15], 7, 18, 3, true);
    let s1 = sigma(w[(i + 14) & 15], 17, 19, 10, true);
    w[i & 15] = w[i & 15]
        .wrapping_add(s0)
        .wrapping_add(w[(i + 9) & 15])
        .wrapping_add(s1);
}

/// FIPS 180-4's Σ and σ: `ROTR^r0 ^ ROTR^r1 ^ ROTR^r2`, with `SHR^r2` as
/// the last term when `shift_last`.
#[inline(always)]
fn sigma(x: u32, r0: u32, r1: u32, r2: u32, shift_last: bool) -> u32 {
    let last = if shift_last {
        x >> r2
    } else {
        x.rotate_right(r2)
    };
    x.rotate_right(r0) ^ x.rotate_right(r1) ^ last
}

/// The `(T1, T2)` of one round on the working registers `s`, with round
/// constant `k` and message word `w`: the new `a` is `T1 + T2` and the
/// new `e` is `d + T1`.
#[inline(always)]
fn round(s: &[u32; 8], k: u32, w: u32) -> (u32, u32) {
    let [a, b, c, _, e, f, g, h] = *s;
    let ch = g ^ (e & (f ^ g));
    let t1 = h
        .wrapping_add(sigma(e, 6, 11, 25, false))
        .wrapping_add(ch)
        .wrapping_add(k)
        .wrapping_add(w);
    let maj = (a & b) | (c & (a | b));
    (t1, sigma(a, 2, 13, 22, false).wrapping_add(maj))
}

/// The 64 rounds of one scalar block, fully unrolled: each round renames
/// the eight working registers instead of shifting them.
#[inline(always)]
fn compress_words(state: &mut [u32; 8], w: &mut [u32; 16]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    macro_rules! round {
        ($i:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {
            if $i >= 16 {
                schedule(w, $i);
            }
            let (t1, t2) = round(&[$a, $b, $c, $d, $e, $f, $g, $h], K256[$i], w[$i & 15]);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    macro_rules! eight_rounds {
        ($i:expr) => {
            round!($i, a, b, c, d, e, f, g, h);
            round!($i + 1, h, a, b, c, d, e, f, g);
            round!($i + 2, g, h, a, b, c, d, e, f);
            round!($i + 3, f, g, h, a, b, c, d, e);
            round!($i + 4, e, f, g, h, a, b, c, d);
            round!($i + 5, d, e, f, g, h, a, b, c);
            round!($i + 6, c, d, e, f, g, h, a, b);
            round!($i + 7, b, c, d, e, f, g, h, a);
        };
    }
    eight_rounds!(0);
    eight_rounds!(8);
    eight_rounds!(16);
    eight_rounds!(24);
    eight_rounds!(32);
    eight_rounds!(40);
    eight_rounds!(48);
    eight_rounds!(56);
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// Incremental SHA-512 hasher.
#[derive(Debug, Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; SHA512_BLOCK_LEN],
    buffered: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha512 {
            state: [
                0x6a09e667f3bcc908,
                0xbb67ae8584caa73b,
                0x3c6ef372fe94f82b,
                0xa54ff53a5f1d36f1,
                0x510e527fade682d1,
                0x9b05688c2b3e6c1f,
                0x1f83d9abfb41bd6b,
                0x5be0cd19137e2179,
            ],
            buffer: [0; SHA512_BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; SHA512_DIGEST_LEN] {
        let mut h = Sha512::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut input = data;
        if self.buffered > 0 {
            let take = (SHA512_BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == SHA512_BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= SHA512_BLOCK_LEN {
            let (block, rest) = input.split_at(SHA512_BLOCK_LEN);
            let mut b = [0u8; SHA512_BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Consumes the hasher, returning the digest.
    pub fn finalize(mut self) -> [u8; SHA512_DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeros up to 112 mod 128, then the 128-bit length: one update.
        let fill = 1 + (SHA512_BLOCK_LEN + 111 - self.buffered) % SHA512_BLOCK_LEN;
        let mut pad = [0u8; SHA512_BLOCK_LEN + 16];
        pad[0] = 0x80;
        pad[fill..fill + 16].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..fill + 16]);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; SHA512_DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; SHA512_BLOCK_LEN]) {
        let mut w = [0u64; 80];
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            w[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K512[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    #[test]
    fn sha256_empty() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            to_hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            to_hex(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn sha512_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        for split in [0usize, 1, 127, 128, 129, 1500, 3000] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha512::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn one_shot_padding_matches_bytewise_padding_at_every_length() {
        // The FIPS 180-4 §5.1 padding fed one byte at a time, then the
        // raw state, against `finalize`'s single padding update.
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for len in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            h.update(&[0x80]);
            while h.buffered != SHA256_BLOCK_LEN - 8 {
                h.update(&[0]);
            }
            h.update(&(len as u64 * 8).to_be_bytes());
            let expected: Vec<u8> = h.state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(
                Sha256::digest(&data[..len])[..],
                expected[..],
                "SHA-256, {len} bytes"
            );

            let mut h = Sha512::new();
            h.update(&data[..len]);
            h.update(&[0x80]);
            while h.buffered != SHA512_BLOCK_LEN - 16 {
                h.update(&[0]);
            }
            h.update(&(len as u128 * 8).to_be_bytes());
            let expected: Vec<u8> = h.state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(
                Sha512::digest(&data[..len])[..],
                expected[..],
                "SHA-512, {len} bytes"
            );
        }
    }

    #[test]
    fn compression_count_model() {
        assert_eq!(Sha256::compressions_for_len(0), 1);
        assert_eq!(Sha256::compressions_for_len(55), 1);
        assert_eq!(Sha256::compressions_for_len(56), 2);
        assert_eq!(Sha256::compressions_for_len(64), 2);
        assert_eq!(Sha256::compressions_for_len(119), 2);
        assert_eq!(Sha256::compressions_for_len(120), 3);
        assert_eq!(Sha256::compressions_for_len(512), 9);
    }
}
