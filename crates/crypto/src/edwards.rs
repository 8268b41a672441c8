//! The edwards25519 group: −x² + y² = 1 + d·x²y² over GF(2^255 − 19).
//!
//! Provides the point arithmetic behind [`crate::ed25519`], in the ref10
//! style. Points use extended homogeneous coordinates (X : Y : Z : T)
//! with x = X/Z, y = Y/Z, xy = T/Z. Additions go through a cached form of
//! the summand, (Y+X, Y−X, 2Z, 2d·T) (or (y+x, y−x, 2d·xy) for affine
//! table points), and doubling uses the dedicated a = −1 formula; both
//! produce a "completed" point that is projected back to extended or
//! plain projective coordinates only as far as the next step needs.
//!
//! Scalar multiplication never branches on, or indexes a table by, the
//! scalar:
//!
//! * [`EdwardsPoint::mul_bits`] is a 4-bit fixed window over all 64
//!   nibbles of the 256-bit scalar: 4 doublings and one addition per
//!   window, the addend read from the 16-entry table `[0·P, …, 15·P]`
//!   by a masked scan of every entry.
//! * [`EdwardsPoint::mul_base`] uses a table of `j·16^i·B` (j = 1..8)
//!   built once on first use. The scalar is recoded into signed radix-16
//!   digits in [−8, 8), so each of the 65 digits costs one masked scan of
//!   its 8-entry row, a masked negation and one mixed addition, with no
//!   doublings.

use std::sync::OnceLock;

use crate::ct;
use crate::field25519::{FieldElement, SQRT_M1};

/// The curve constant d = −121665/121666.
const D: FieldElement = FieldElement([
    929955233495203,
    466365720129213,
    1662059464998953,
    2033849074728123,
    1442794654840575,
]);

/// 2·d, the factor in the cached form's T coordinate.
const D2: FieldElement = FieldElement([
    1859910466990425,
    932731440258426,
    1072319116312658,
    1815898335770999,
    633789495995903,
]);

/// The standard base point B (y = 4/5, x positive), with Z = 1.
const BASEPOINT: EdwardsPoint = EdwardsPoint {
    x: FieldElement([
        1738742601995546,
        1146398526822698,
        2070867633025821,
        562264141797630,
        587772402128613,
    ]),
    y: FieldElement([
        1801439850948184,
        1351079888211148,
        450359962737049,
        900719925474099,
        1801439850948198,
    ]),
    z: FieldElement::ONE,
    t: FieldElement([
        1841354044333475,
        16398895984059,
        755974180946558,
        900171276175154,
        1821297809914039,
    ]),
};

/// A point on edwards25519.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// (X : Y : Z) without T: the input doubling needs.
#[derive(Clone, Copy)]
struct ProjectivePoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// The result of an addition or doubling before its final products:
/// X = E·F, Y = G·H, Z = F·G, T = E·H.
struct CompletedPoint {
    e: FieldElement,
    f: FieldElement,
    g: FieldElement,
    h: FieldElement,
}

/// A summand in cached form (Y+X, Y−X, 2Z, 2d·T).
#[derive(Clone, Copy)]
struct CachedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z2: FieldElement,
    t2d: FieldElement,
}

/// An affine summand (Z = 1) in cached form (y+x, y−x, 2d·xy).
#[derive(Clone, Copy)]
struct AffineCachedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) && (Y1/Z1 == Y2/Z2), cross-multiplied.
        let lx = self.x.mul(&other.z);
        let rx = other.x.mul(&self.z);
        let ly = self.y.mul(&other.z);
        let ry = other.y.mul(&self.z);
        lx == rx && ly == ry
    }
}

impl Eq for EdwardsPoint {}

impl Default for EdwardsPoint {
    fn default() -> Self {
        Self::identity()
    }
}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    #[must_use]
    pub fn identity() -> Self {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point B (y = 4/5, x positive).
    #[must_use]
    pub fn basepoint() -> Self {
        BASEPOINT
    }

    /// Point addition (complete on this curve).
    #[must_use]
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_cached(&other.to_cached()).to_extended()
    }

    /// Point doubling (dbl-2008-hwcd for a = −1: 4 squarings and 4
    /// multiplications).
    #[must_use]
    pub fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// Point negation.
    #[must_use]
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication by a 256-bit little-endian integer.
    ///
    /// The scalar is *not* reduced modulo the group order: Ed25519 key
    /// clamping produces integers in [2^254, 2^255) that are multiplied
    /// directly, and a point of unknown order must see every bit. Runs a
    /// 4-bit fixed window over all 64 nibbles, most significant first;
    /// each window's addend is read by a masked scan of all 16 entries.
    #[must_use]
    pub fn mul_bits(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        // table[j] = j·P.
        let mut table = [EdwardsPoint::identity().to_cached(); 16];
        let p = self.to_cached();
        let mut multiple = *self;
        table[1] = p;
        for entry in table.iter_mut().skip(2) {
            multiple = multiple.add_cached(&p).to_extended();
            *entry = multiple.to_cached();
        }

        let mut acc = EdwardsPoint::identity();
        for i in (0..64).rev() {
            if i != 63 {
                acc = acc.mul_by_pow2(4);
            }
            let nibble = (scalar_le[i / 2] >> (4 * (i % 2))) & 0x0f;
            let mut addend = table[0];
            for (j, entry) in table.iter().enumerate().skip(1) {
                addend.conditional_assign(entry, ct::eq_u64(j as u64, nibble as u64));
            }
            acc = acc.add_cached(&addend).to_extended();
        }
        acc
    }

    /// Scalar multiplication of the base point B by a 256-bit
    /// little-endian integer, through the fixed-base table.
    ///
    /// Gives the same point as `basepoint().mul_bits(scalar_le)` for
    /// every 256-bit input, without doublings.
    #[must_use]
    pub fn mul_base(scalar_le: &[u8; 32]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for (row, digit) in base_table().iter().zip(signed_radix16(scalar_le)) {
            acc = acc.add_affine(&select_signed(row, digit)).to_extended();
        }
        acc
    }

    /// Compresses to the standard 32-byte encoding: y with the sign of x
    /// in the top bit.
    #[must_use]
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding; `None` if it is not a valid point.
    #[must_use]
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = FieldElement::from_bytes(&y_bytes);
        // Reject non-canonical y encodings.
        if y.to_bytes() != y_bytes {
            return None;
        }
        // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = D.mul(&yy).add(&FieldElement::ONE);
        let x = recover_x(&u, &v)?;
        let mut x = x;
        if x.is_zero() && sign == 1 {
            // -0 is not a valid encoding.
            return None;
        }
        if (x.is_negative() as u8) != sign {
            x = x.neg();
        }
        Some(EdwardsPoint {
            t: x.mul(&y),
            x,
            y,
            z: FieldElement::ONE,
        })
    }

    /// True if this is the neutral element.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        *self == EdwardsPoint::identity()
    }

    /// True if the point has small order (order dividing 8). Used to
    /// reject degenerate public keys in X25519-style checks.
    #[must_use]
    pub fn is_small_order(&self) -> bool {
        self.mul_by_pow2(3).is_identity()
    }

    /// 2^k · self, for k ≥ 1; the intermediate doublings skip T.
    fn mul_by_pow2(&self, k: u32) -> EdwardsPoint {
        let mut p = self.to_projective();
        for _ in 1..k {
            p = p.double().to_projective();
        }
        p.double().to_extended()
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z2: self.z.add(&self.z),
            t2d: self.t.mul(&D2),
        }
    }

    /// `self + q` (add-2008-hwcd-3 with k = 2d), before the final
    /// products.
    fn add_cached(&self, q: &CachedPoint) -> CompletedPoint {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.t2d);
        let d = self.z.mul(&q.z2);
        CompletedPoint {
            e: b.sub(&a),
            f: d.sub(&c),
            g: d.add(&c),
            h: b.add(&a),
        }
    }

    /// `self + q` for an affine cached `q`: its Z is 1, so 2·Z1·Z2 is an
    /// addition.
    fn add_affine(&self, q: &AffineCachedPoint) -> CompletedPoint {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.xy2d);
        let d = self.z.add(&self.z);
        CompletedPoint {
            e: b.sub(&a),
            f: d.sub(&c),
            g: d.add(&c),
            h: b.add(&a),
        }
    }
}

impl ProjectivePoint {
    /// dbl-2008-hwcd with a = −1.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(&zz);
        let xy2 = self.x.add(&self.y).square();
        // G = B − A, H = −A − B, E = (X+Y)² − A − B, F = G − 2Z².
        let g = yy.sub(&xx);
        let h = xx.add(&yy).neg();
        CompletedPoint {
            e: xy2.add(&h),
            f: g.sub(&zz2),
            g,
            h,
        }
    }
}

impl CompletedPoint {
    fn to_extended(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }

    fn to_projective(&self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
        }
    }
}

impl CachedPoint {
    fn conditional_assign(&mut self, other: &CachedPoint, choice: bool) {
        self.y_plus_x.conditional_assign(&other.y_plus_x, choice);
        self.y_minus_x.conditional_assign(&other.y_minus_x, choice);
        self.z2.conditional_assign(&other.z2, choice);
        self.t2d.conditional_assign(&other.t2d, choice);
    }
}

impl AffineCachedPoint {
    const IDENTITY: AffineCachedPoint = AffineCachedPoint {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        xy2d: FieldElement::ZERO,
    };

    fn conditional_assign(&mut self, other: &AffineCachedPoint, choice: bool) {
        self.y_plus_x.conditional_assign(&other.y_plus_x, choice);
        self.y_minus_x.conditional_assign(&other.y_minus_x, choice);
        self.xy2d.conditional_assign(&other.xy2d, choice);
    }

    /// Replaces the point with its negation (−x, y) if `choice` is true.
    fn conditional_negate(&mut self, choice: bool) {
        FieldElement::conditional_swap(&mut self.y_plus_x, &mut self.y_minus_x, choice);
        let neg = self.xy2d.neg();
        self.xy2d.conditional_assign(&neg, choice);
    }
}

/// The fixed-base table, built on first use: row i holds j·16^i·B for
/// j = 1..8, 65 rows (row 64 takes the carry out of the top signed
/// digit).
fn base_table() -> &'static [[AffineCachedPoint; 8]] {
    static TABLE: OnceLock<Vec<[AffineCachedPoint; 8]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut points = Vec::with_capacity(65 * 8);
        let mut row_base = BASEPOINT;
        for _ in 0..65 {
            let step = row_base.to_cached();
            let mut p = row_base;
            points.push(p);
            for _ in 1..8 {
                p = p.add_cached(&step).to_extended();
                points.push(p);
            }
            // p = 8·16^i·B, so the next row starts at 16^(i+1)·B.
            row_base = p.double();
        }
        // Normalise to Z = 1 with one inversion (Montgomery's trick).
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = FieldElement::ONE;
        for p in &points {
            prefix.push(acc);
            acc = acc.mul(&p.z);
        }
        let mut inv = acc.invert();
        let mut table = vec![[AffineCachedPoint::IDENTITY; 8]; 65];
        for i in (0..points.len()).rev() {
            let p = &points[i];
            let zinv = inv.mul(&prefix[i]);
            inv = inv.mul(&p.z);
            let x = p.x.mul(&zinv);
            let y = p.y.mul(&zinv);
            table[i / 8][i % 8] = AffineCachedPoint {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(&D2),
            };
        }
        table
    })
}

/// Recodes a 256-bit little-endian integer into 65 signed radix-16
/// digits: digits 0..64 lie in [−8, 8) and digit 64 is 0 or 1, with
/// Σ digit_i·16^i equal to the input.
fn signed_radix16(scalar_le: &[u8; 32]) -> [i8; 65] {
    let mut digits = [0i8; 65];
    for (i, byte) in scalar_le.iter().enumerate() {
        digits[2 * i] = (byte & 0x0f) as i8;
        digits[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in digits.iter_mut().take(64) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    digits[64] = carry;
    digits
}

/// Reads `digit·16^i·B` from row i: a masked scan of all 8 entries for
/// |digit| and a masked negation for its sign.
fn select_signed(row: &[AffineCachedPoint; 8], digit: i8) -> AffineCachedPoint {
    let sign = digit >> 7; // 0 or −1
    let abs = ((digit ^ sign) - sign) as u64;
    let mut out = AffineCachedPoint::IDENTITY;
    for (j, entry) in row.iter().enumerate() {
        out.conditional_assign(entry, ct::eq_u64(j as u64 + 1, abs));
    }
    out.conditional_negate(sign != 0);
    out
}

/// Computes x with x²·v = u, if it exists.
fn recover_x(u: &FieldElement, v: &FieldElement) -> Option<FieldElement> {
    // candidate = u·v³·(u·v⁷)^((p−5)/8)
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let candidate = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
    let check = v.mul(&candidate.square());
    if check == *u {
        Some(candidate)
    } else if check == u.neg() {
        Some(candidate.mul(&SQRT_M1))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basepoint_is_on_curve() {
        let b = EdwardsPoint::basepoint();
        // Check −x² + y² = 1 + d·x²y² in affine coordinates.
        let zinv = b.z.invert();
        let x = b.x.mul(&zinv);
        let y = b.y.mul(&zinv);
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = FieldElement::ONE.add(&D.mul(&xx).mul(&yy));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn constants_match_their_definitions() {
        // d = −121665/121666 and 2d.
        let num = FieldElement::from_u64(121_665).neg();
        let den = FieldElement::from_u64(121_666);
        assert_eq!(D, num.mul(&den.invert()));
        assert_eq!(D2, D.add(&D));
        // B decompresses from 0x58 66…66, and its T is x·y.
        let mut compressed = [0x66u8; 32];
        compressed[0] = 0x58;
        let b = EdwardsPoint::decompress(&compressed).expect("standard basepoint decodes");
        assert_eq!(b.x, BASEPOINT.x);
        assert_eq!(b.y, BASEPOINT.y);
        assert_eq!(b.z, FieldElement::ONE);
        assert_eq!(BASEPOINT.t, BASEPOINT.x.mul(&BASEPOINT.y));
    }

    #[test]
    fn identity_laws() {
        let b = EdwardsPoint::basepoint();
        let id = EdwardsPoint::identity();
        assert_eq!(b.add(&id), b);
        assert_eq!(id.add(&b), b);
        assert_eq!(b.add(&b.neg()), id);
        assert!(id.is_identity());
        assert!(id.double().is_identity());
    }

    #[test]
    fn double_matches_add() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.double(), b.add(&b));
        let p = b.double().add(&b);
        assert_eq!(p.double(), p.add(&p));
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = EdwardsPoint::basepoint();
        let mut two = [0u8; 32];
        two[0] = 2;
        assert_eq!(b.mul_bits(&two), b.double());
        assert_eq!(EdwardsPoint::mul_base(&two), b.double());
        let mut five = [0u8; 32];
        five[0] = 5;
        let by_add = b.double().double().add(&b);
        assert_eq!(b.mul_bits(&five), by_add);
        assert_eq!(EdwardsPoint::mul_base(&five), by_add);
        assert!(EdwardsPoint::mul_base(&[0; 32]).is_identity());
    }

    #[test]
    fn compress_decompress_round_trip() {
        let b = EdwardsPoint::basepoint();
        let mut p = b;
        for _ in 0..16 {
            let compressed = p.compress();
            let q = EdwardsPoint::decompress(&compressed).expect("valid point");
            assert_eq!(p, q);
            p = p.add(&b);
        }
    }

    #[test]
    fn basepoint_has_expected_encoding() {
        let mut expected = [0x66u8; 32];
        expected[0] = 0x58;
        assert_eq!(EdwardsPoint::basepoint().compress(), expected);
    }

    #[test]
    fn scalar_mul_by_group_order_is_identity() {
        // ℓ · B = identity.
        let l_bytes: [u8; 32] = {
            let mut b = [0u8; 32];
            let limbs: [u64; 4] = [
                0x5812_631a_5cf5_d3ed,
                0x14de_f9de_a2f7_9cd6,
                0,
                0x1000_0000_0000_0000,
            ];
            for (i, limb) in limbs.iter().enumerate() {
                b[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
            }
            b
        };
        assert!(EdwardsPoint::basepoint().mul_bits(&l_bytes).is_identity());
        assert!(EdwardsPoint::mul_base(&l_bytes).is_identity());
    }

    #[test]
    fn rejects_invalid_encodings() {
        // Use a guaranteed-non-canonical encoding: y = p (encodes zero
        // non-canonically).
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        assert!(EdwardsPoint::decompress(&p_bytes).is_none());
    }

    #[test]
    fn small_order_detection() {
        assert!(EdwardsPoint::identity().is_small_order());
        assert!(!EdwardsPoint::basepoint().is_small_order());
    }
}
