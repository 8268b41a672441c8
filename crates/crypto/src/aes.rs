//! AES-128 / AES-256 block cipher (FIPS 197), fixsliced and constant-time.
//!
//! The Shield's AES engine (§5.2.2) "contains an internal 256-byte lookup
//! table for the S-box" which can be "duplicated up to 16 times per
//! engine, reducing the AES latency through parallel lookups at the cost
//! of higher resource consumption". That duplication is a hardware
//! latency/area trade-off; [`SBoxParallelism`] models it for the timing
//! and area models in `shef-core`.
//!
//! The software cipher does not use a table. A table indexed by secret
//! bytes leaks through the cache, and §5.2 promises that "the timing of
//! Shield cryptographic engines does not depend on any confidential
//! information". So the cipher is bitsliced: four blocks are packed into
//! eight `u64` words, word `j` holding bit `j` of every byte (the BearSSL
//! `aes_ct64` layout), and SubBytes is the Boyar–Peralta Boolean circuit
//! ("A new combinational logic minimization technique with applications
//! to cryptology", eprint 2009/191). It is also *fixsliced* (Adomnicai
//! and Peyrin, "Fixslicing AES-like Ciphers", TCHES 2021): ShiftRows is
//! never computed in the rounds. Round `r` works on the state shifted by
//! ShiftRows^(−r), which MixColumns absorbs into its row rotations and the
//! key schedule into round key `r`; one ShiftRows² at the end restores
//! the standard state, because both key sizes have `rounds mod 4 = 2`.
//! No lookup is indexed by key or data and nothing branches on them, so
//! the running time depends only on the number of blocks.
//!
//! The cipher runs sixteen blocks ([`AES_BATCH`]) per pass, the software
//! counterpart of the paper's 16 AES engines per engine set (Table 2).
//! The state is `[[u64; 4]; 8]`: `q[j][l]` is word `j` of lane `l`, and
//! each lane is one four-block fixsliced state, so the four lanes of a
//! word sit side by side in memory. Each round is one loop over the four
//! lanes around the same circuit, and LLVM's loop vectoriser turns that
//! loop into SSE2 code, two lanes per instruction. The loop must be per
//! round: a lane loop around the whole ten-round pass stays scalar.
//! Inside it no round key is indexed: a bounds check is an early exit,
//! which the vectoriser refuses.
//!
//! A group of fewer than 13 blocks goes through four-block passes: the
//! same code with one lane, which compiles to the scalar circuit. That
//! covers [`Aes::encrypt_block`], 64 B chunks and PMAC's final block.
//! [`Aes::encrypt_blocks`] is the fast path for CTR, PMAC and GCM. Which
//! pass runs depends only on the number of blocks. Only the forward
//! cipher exists: every mode in this crate (CTR, PMAC, GCM and the GHASH
//! subkey) encrypts.
//!
//! # Example
//!
//! ```
//! use shef_crypto::aes::{Aes, AesKeySize};
//!
//! let aes = Aes::new_128(&[0u8; 16]);
//! let ct = aes.encrypt_block(&[0u8; 16]);
//! let mut blocks = [[0u8; 16]; 5];
//! aes.encrypt_blocks(&mut blocks);
//! assert!(blocks.iter().all(|b| *b == ct));
//! assert_eq!(aes.key_size(), AesKeySize::Aes128);
//! ```

// The lane loop and SubBytes must inline into every round's lane loop:
// with plain inlining hints LLVM leaves calls in some of them (the
// final round's, and the ortho pass around the rounds), and a lane loop
// with a call is not vectorised.
#![allow(clippy::inline_always)]

/// Bytes in one AES block.
pub const AES_BLOCK_LEN: usize = 16;

/// Blocks encrypted by one full pass of the bitsliced cipher. Callers
/// with many blocks hand them to [`Aes::encrypt_blocks`] in groups of this
/// size.
pub const AES_BATCH: usize = LANES * LANE_BLOCKS;

/// Blocks in one fixsliced [`State`], i.e. in one lane.
const LANE_BLOCKS: usize = 4;

/// Lanes of a full pass.
const LANES: usize = 4;

const MAX_ROUNDS: usize = 14;

/// Round constants of the key schedule (public values).
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// AES key size, selectable per Shield engine set at bitstream compile time
/// ("users are also able to configure the AES key size (128 or 256 bits)
/// during bitstream compilation", §5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AesKeySize {
    /// 128-bit key, 10 rounds.
    #[default]
    Aes128,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl AesKeySize {
    /// Key length in bytes.
    #[must_use]
    pub fn key_len(self) -> usize {
        match self {
            AesKeySize::Aes128 => 16,
            AesKeySize::Aes256 => 32,
        }
    }

    /// Number of cipher rounds (excluding the initial AddRoundKey).
    #[must_use]
    pub fn rounds(self) -> usize {
        match self {
            AesKeySize::Aes128 => 10,
            AesKeySize::Aes256 => 14,
        }
    }
}

impl core::fmt::Display for AesKeySize {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AesKeySize::Aes128 => write!(f, "AES-128"),
            AesKeySize::Aes256 => write!(f, "AES-256"),
        }
    }
}

/// S-box duplication factor inside one Shield AES engine.
///
/// The Shield performs the 16 S-box lookups of an AES round through
/// `factor` parallel copies of the lookup table, so one round takes
/// `16 / factor` cycles (§5.2.2 and Table 1, "AES-4x"/"AES-16x").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SBoxParallelism {
    /// One S-box: 16 lookups per round are serial.
    X1,
    /// Two parallel S-boxes.
    X2,
    /// Four parallel S-boxes (the paper's "AES/4x").
    X4,
    /// Eight parallel S-boxes.
    X8,
    /// Sixteen parallel S-boxes (the paper's "AES/16x").
    X16,
}

impl SBoxParallelism {
    /// Duplication factor as an integer.
    #[must_use]
    pub fn factor(self) -> u32 {
        match self {
            SBoxParallelism::X1 => 1,
            SBoxParallelism::X2 => 2,
            SBoxParallelism::X4 => 4,
            SBoxParallelism::X8 => 8,
            SBoxParallelism::X16 => 16,
        }
    }

    /// Cycles for one AES round: 16 S-box lookups through `factor` tables.
    #[must_use]
    pub fn cycles_per_round(self) -> u64 {
        (16 / self.factor()) as u64
    }
}

impl core::fmt::Display for SBoxParallelism {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x", self.factor())
    }
}

/// Four blocks in bitsliced form: word `j` holds bit `j` of every byte,
/// and byte (row `r`, column `c`) of block `b` sits at bit `16·r + 4·c + b`.
/// Each 16-bit lane of a word is thus one row of all four blocks.
type State = [u64; 8];

/// `N` states side by side: `q[j][l]` is word `j` of lane `l`'s
/// [`State`], so the lanes of a word are adjacent in memory.
type Lanes<const N: usize> = [[u64; N]; 8];

/// An AES cipher instance with an expanded key schedule.
#[derive(Clone)]
pub struct Aes {
    /// Bitsliced round keys: one lane, the same key in all four block
    /// slots, added to every lane. Key `r` for `0 < r < rounds` is stored
    /// shifted by ShiftRows^(−r) to match the fixsliced state; keys 0 and
    /// `rounds` are unshifted.
    round_keys: [State; MAX_ROUNDS + 1],
    key_size: AesKeySize,
}

impl core::fmt::Debug for Aes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes")
            .field("key_size", &self.key_size)
            .finish_non_exhaustive()
    }
}

impl Aes {
    /// Creates an AES-128 instance.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, AesKeySize::Aes128)
    }

    /// Creates an AES-256 instance.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, AesKeySize::Aes256)
    }

    /// Creates an instance from a key slice whose length selects the variant.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16 or 32.
    pub fn new(key: &[u8]) -> Self {
        match key.len() {
            16 => Self::new_128(key.try_into().expect("16-byte key")),
            32 => Self::new_256(key.try_into().expect("32-byte key")),
            n => panic!("AES key must be 16 or 32 bytes, got {n}"),
        }
    }

    /// The key size this instance was constructed with.
    #[must_use]
    pub fn key_size(&self) -> AesKeySize {
        self.key_size
    }

    fn expand(key: &[u8], key_size: AesKeySize) -> Self {
        let nk = key.len() / 4; // words in key: 4 or 8
        let rounds = key_size.rounds();
        let mut w = [[0u8; 4]; 4 * (MAX_ROUNDS + 1)];
        for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = chunk.try_into().expect("4-byte word");
        }
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                temp = sub_word(temp);
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            for k in 0..4 {
                w[i][k] = w[i - nk][k] ^ temp[k];
            }
        }
        let mut round_keys = [[0u64; 8]; MAX_ROUNDS + 1];
        for (r, rk) in round_keys[..=rounds].iter_mut().enumerate() {
            let mut block = [0u8; AES_BLOCK_LEN];
            for (dst, word) in block.chunks_exact_mut(4).zip(&w[4 * r..4 * r + 4]) {
                dst.copy_from_slice(word);
            }
            *rk = interleave_in(&[block; LANE_BLOCKS]);
            ortho(rk);
            if r < rounds {
                // ShiftRows^(−r) = ShiftRows^(4 − r mod 4).
                shift_rows(rk, (4 - r % 4) as u32);
            }
        }
        Aes {
            round_keys,
            key_size,
        }
    }

    /// Encrypts one 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut blocks = [*block];
        self.encrypt_blocks(&mut blocks);
        blocks[0]
    }

    /// Encrypts `blocks` in place, [`AES_BATCH`] blocks per cipher pass.
    ///
    /// A group of 13 to 16 blocks takes one full pass with all four lanes;
    /// a smaller group (only the last one can be) takes four-block
    /// passes, because three of those cost about as much as one full
    /// pass. The choice depends only on the number of blocks.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        for group in blocks.chunks_mut(AES_BATCH) {
            if group.len() > AES_BATCH - LANE_BLOCKS {
                self.pass::<LANES>(group);
            } else {
                for lane in group.chunks_mut(LANE_BLOCKS) {
                    self.pass::<1>(lane);
                }
            }
        }
    }

    /// One cipher pass over up to `4·N` blocks in `N` lanes.
    #[inline]
    fn pass<const N: usize>(&self, blocks: &mut [[u8; 16]]) {
        let mut q = [[0u64; N]; 8];
        for (l, lane) in blocks.chunks(LANE_BLOCKS).enumerate() {
            for (word, x) in q.iter_mut().zip(interleave_in(lane)) {
                word[l] = x;
            }
        }
        each_lane(&mut q, ortho);
        self.encrypt_lanes(&mut q);
        each_lane(&mut q, ortho);
        for (l, lane) in blocks.chunks_mut(LANE_BLOCKS).enumerate() {
            interleave_out(core::array::from_fn(|j| q[j][l]), lane);
        }
    }

    fn encrypt_lanes<const N: usize>(&self, q: &mut Lanes<N>) {
        let rounds = self.key_size.rounds();
        debug_assert_eq!(
            rounds % 4,
            2,
            "the final ShiftRows² assumes rounds mod 4 = 2"
        );
        // Each round key is bound before its lane loop: a bounds check
        // inside the loop is an early exit, which the vectoriser refuses.
        let rk = &self.round_keys;
        each_lane(q, |s| add_round_key(s, &rk[0]));
        let mut r = 1;
        loop {
            let k1 = &rk[r];
            each_lane(q, |s| round::<1>(s, k1));
            if r + 1 == rounds {
                break;
            }
            let [k2, k3, k0] = [&rk[r + 1], &rk[r + 2], &rk[r + 3]];
            each_lane(q, |s| round::<2>(s, k2));
            each_lane(q, |s| round::<3>(s, k3));
            each_lane(q, |s| round::<0>(s, k0));
            r += 4;
        }
        // The last round has no MixColumns; ShiftRows² undoes the
        // fixslicing.
        let last = &rk[rounds];
        each_lane(q, |s| {
            sub_bytes(s);
            shift_rows(s, 2);
            add_round_key(s, last);
        });
    }
}

/// Applies `step` to every lane. Called once per round, so the lane loop
/// is the innermost loop around one round's circuit, which LLVM's loop
/// vectoriser turns into SSE2 code two lanes at a time.
#[inline(always)]
fn each_lane<const N: usize>(q: &mut Lanes<N>, step: impl Fn(&mut State)) {
    for l in 0..N {
        let mut s: State = core::array::from_fn(|j| q[j][l]);
        step(&mut s);
        for (word, x) in q.iter_mut().zip(s) {
            word[l] = x;
        }
    }
}

/// The AES S-box of one byte, evaluated by the cipher's bitsliced circuit
/// (no table lookup).
#[must_use]
pub fn sbox(x: u8) -> u8 {
    sub_word([x, 0, 0, 0])[0]
}

/// SubWord of the key schedule: four bytes through one pass of the
/// bitsliced S-box, byte `i` at bit `i` of each bit plane.
fn sub_word(word: [u8; 4]) -> [u8; 4] {
    let mut q = [0u64; 8];
    for (j, plane) in q.iter_mut().enumerate() {
        for (i, b) in word.iter().enumerate() {
            *plane |= u64::from((b >> j) & 1) << i;
        }
    }
    sub_bytes(&mut q);
    let mut out = [0u8; 4];
    for (i, b) in out.iter_mut().enumerate() {
        for (j, plane) in q.iter().enumerate() {
            *b |= (((plane >> i) & 1) as u8) << j;
        }
    }
    out
}

/// One full round `r` with `R = r mod 4`: SubBytes, the fixsliced
/// MixColumns (ShiftRows folded in), AddRoundKey.
#[inline]
fn round<const R: u32>(q: &mut State, rk: &State) {
    sub_bytes(q);
    mix_columns::<R>(q);
    add_round_key(q, rk);
}

#[inline]
fn add_round_key(q: &mut State, rk: &State) {
    for (x, k) in q.iter_mut().zip(rk) {
        *x ^= k;
    }
}

/// Rotates the row lanes of `x` so row `r` takes row `r + rows`, then
/// rotates each 16-bit row lane right by `4·cols` bits so column `c`
/// takes column `c + cols`.
#[inline]
fn rotate(x: u64, rows: u32, cols: u32) -> u64 {
    let low = 0x0001_0001_0001_0001 * (0xffff >> (4 * cols));
    let by = 16 * rows + 4 * cols;
    (x.rotate_right(by) & low) | (x.rotate_right((by + 48) % 64) & !low)
}

/// ShiftRows^k: row `r` is rotated left by `r·k` columns.
#[inline]
fn shift_rows(q: &mut State, k: u32) {
    for x in q.iter_mut() {
        let mut out = *x & 0xffff;
        for r in 1..4 {
            let lane = (*x >> (16 * r)) as u16;
            out |= u64::from(lane.rotate_right(4 * ((r * k) % 4))) << (16 * r);
        }
        *x = out;
    }
}

/// MixColumns of round `r`, `R = r mod 4`, on the state shifted by
/// ShiftRows^(−r). The textbook bitsliced MixColumns is
/// `xtime(c) ⊕ rotr16(q) ⊕ rotr32(c)` with `c = q ⊕ rotr16(q)`;
/// conjugating by ShiftRows^r turns each row rotation into a row rotation
/// followed by a column rotation of `R` (after `rotr16`) or `2R` (after
/// `rotr32`) columns.
#[inline]
fn mix_columns<const R: u32>(q: &mut State) {
    let r = q.map(|x| rotate(x, 1, R));
    let c: State = core::array::from_fn(|j| q[j] ^ r[j]);
    let s = c.map(|x| rotate(x, 2, (2 * R) % 4));
    q[0] = r[0] ^ c[7] ^ s[0];
    q[1] = r[1] ^ c[0] ^ c[7] ^ s[1];
    q[2] = r[2] ^ c[1] ^ s[2];
    q[3] = r[3] ^ c[2] ^ c[7] ^ s[3];
    q[4] = r[4] ^ c[3] ^ c[7] ^ s[4];
    q[5] = r[5] ^ c[4] ^ s[5];
    q[6] = r[6] ^ c[5] ^ s[6];
    q[7] = r[7] ^ c[6] ^ s[7];
}

/// SubBytes on all 64 bytes at once: the Boyar–Peralta circuit (113
/// gates). `x0`/`s0` are the most significant bit, i.e. `q[7]`.
#[inline(always)]
fn sub_bytes(q: &mut State) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section.
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// Packs up to four blocks into the eight words (missing blocks are
/// zero): BearSSL's `interleave_in` per block. [`ortho`] then makes them
/// a bitsliced [`State`].
#[inline]
fn interleave_in(blocks: &[[u8; 16]]) -> State {
    debug_assert!(blocks.len() <= LANE_BLOCKS);
    let mut q = [0u64; 8];
    for (b, block) in blocks.iter().enumerate() {
        let [x0, x1, x2, x3] = core::array::from_fn(|c| {
            // Column `c` as a little-endian word: row `r` in byte `r`,
            // spread to bits 16·r..16·r + 8.
            let word = u32::from_le_bytes(block[4 * c..4 * c + 4].try_into().expect("4 bytes"));
            let x = u64::from(word);
            let x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
            (x | (x << 8)) & 0x00ff_00ff_00ff_00ff
        });
        q[b] = x0 | (x2 << 8);
        q[b + 4] = x1 | (x3 << 8);
    }
    q
}

/// Unpacks the words into `blocks` (at most four): the inverse of
/// [`interleave_in`], after [`ortho`] has undone the bitslicing.
#[inline]
fn interleave_out(q: State, blocks: &mut [[u8; 16]]) {
    let gather = |x: u64| {
        let x = x & 0x00ff_00ff_00ff_00ff;
        let x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
        ((x | (x >> 16)) as u32).to_le_bytes()
    };
    for (b, block) in blocks.iter_mut().enumerate() {
        let columns = [q[b], q[b + 4], q[b] >> 8, q[b + 4] >> 8];
        for (dst, column) in block.chunks_exact_mut(4).zip(columns) {
            dst.copy_from_slice(&gather(column));
        }
    }
}

/// Transposes each byte position of the eight words as an 8×8 bit
/// matrix: bit `i` of byte `k` of word `j` swaps with bit `j` of byte `k`
/// of word `i`. An involution, so it both packs and unpacks.
#[inline]
fn ortho(q: &mut State) {
    fn swap(q: &mut State, i: usize, j: usize, low: u64, shift: u32) {
        let (a, b) = (q[i], q[j]);
        q[i] = (a & low) | ((b & low) << shift);
        q[j] = ((a & !low) >> shift) | (b & !low);
    }
    for i in [0, 2, 4, 6] {
        swap(q, i, i + 1, 0x5555_5555_5555_5555, 1);
    }
    for i in [0, 1, 4, 5] {
        swap(q, i, i + 2, 0x3333_3333_3333_3333, 2);
    }
    for i in [0, 1, 2, 3] {
        swap(q, i, i + 4, 0x0f0f_0f0f_0f0f_0f0f, 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_hex;

    #[test]
    fn fips197_aes128_example() {
        // FIPS 197 Appendix C.1
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes::new_128(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(crate::to_hex(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn fips197_aes256_example() {
        // FIPS 197 Appendix C.3
        let key: [u8; 32] =
            from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .unwrap()
                .try_into()
                .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes::new_256(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(crate::to_hex(&ct), "8ea2b7ca516745bfeafc49904b496089");
    }

    #[test]
    fn nist_aes128_ecb_kat() {
        // SP 800-38A F.1.1: all four blocks through one batched pass.
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let pt = from_hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        )
        .unwrap();
        let mut blocks: Vec<[u8; 16]> = pt.chunks(16).map(|b| b.try_into().unwrap()).collect();
        Aes::new_128(&key).encrypt_blocks(&mut blocks);
        assert_eq!(
            crate::to_hex(&blocks.concat()),
            "3ad77bb40d7a3660a89ecaf32466ef97f5d3d58503b9699de785895a96fdbaaf\
             43b1cd7f598ece23881b00e3ed0306887b0c785e27e8ad3f8223207104725dd4"
        );
    }

    #[test]
    fn encrypt_blocks_matches_encrypt_block_random() {
        // Deterministic pseudo-random coverage of both key sizes and of
        // every position inside a full pass and a 13-block tail pass.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20 {
            let mut key = [0u8; 32];
            for chunk in key.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let mut blocks = [[0u8; 16]; 2 * AES_BATCH + 13];
            for chunk in blocks.as_flattened_mut().chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            for aes in [
                Aes::new_128(&key[..16].try_into().unwrap()),
                Aes::new_256(&key),
            ] {
                let mut batched = blocks;
                aes.encrypt_blocks(&mut batched);
                for (b, ct) in blocks.iter().zip(&batched) {
                    assert_eq!(aes.encrypt_block(b), *ct);
                }
            }
        }
    }

    #[test]
    fn sbox_parallelism_cycles() {
        assert_eq!(SBoxParallelism::X4.cycles_per_round(), 4);
        assert_eq!(SBoxParallelism::X16.cycles_per_round(), 1);
        assert_eq!(SBoxParallelism::X1.cycles_per_round(), 16);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new_128(&[0xaa; 16]);
        let dbg = format!("{aes:?}");
        assert!(
            !dbg.contains("aa"),
            "debug output must not contain key bytes: {dbg}"
        );
    }
}
