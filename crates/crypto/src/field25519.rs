//! Arithmetic in GF(2^255 − 19), the field underlying Curve25519.
//!
//! Elements are represented with five 51-bit limbs, the standard radix-51
//! representation. This backs both [`crate::x25519`] (the attestation
//! session-key exchange) and [`crate::ed25519`] (device/attestation
//! signatures).
//!
//! Multiplication and squaring fold the ×19 wrap-around into the
//! operand and reduce with a single carry pass; inversion and the
//! square-root exponent share the ref10 addition chain. Nothing here
//! branches on or indexes by an element's value except the encoding
//! helpers' final canonical reduction, which is itself branch-free.

use crate::ct;

const MASK_51: u64 = (1u64 << 51) - 1;

/// An element of GF(2^255 − 19).
///
/// Invariant: limbs are kept below 2^52 between operations; callers never
/// observe non-canonical values because [`FieldElement::to_bytes`]
/// performs a full canonical reduction.
#[derive(Clone, Copy)]
pub struct FieldElement(pub(crate) [u64; 5]);

impl core::fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "FieldElement({})", crate::to_hex(&self.to_bytes()))
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        ct::eq(&self.to_bytes(), &other.to_bytes())
    }
}

impl Eq for FieldElement {}

impl Default for FieldElement {
    fn default() -> Self {
        Self::ZERO
    }
}

/// √−1 = 2^((p−1)/4) in the field, needed for Ed25519 point
/// decompression.
pub const SQRT_M1: FieldElement = FieldElement([
    1718705420411056,
    234908883556509,
    2233514472574048,
    2117202627021982,
    765476049583133,
]);

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0; 5]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Constructs an element from a little-endian 32-byte encoding,
    /// ignoring the top bit (as specified for Curve25519 field encodings).
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        let load = |range: core::ops::Range<usize>| -> u64 {
            let mut v = 0u64;
            for (i, b) in bytes[range].iter().enumerate() {
                v |= (*b as u64) << (8 * i);
            }
            v
        };
        // 51-bit windows over the 255-bit little-endian integer.
        let l0 = load(0..8) & MASK_51;
        let l1 = (load(6..14) >> 3) & MASK_51;
        let l2 = (load(12..20) >> 6) & MASK_51;
        let l3 = (load(19..27) >> 1) & MASK_51;
        let l4 = (load(24..32) >> 12) & MASK_51;
        FieldElement([l0, l1, l2, l3, l4])
    }

    /// Constructs an element from a small integer.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        let mut fe = FieldElement([0; 5]);
        fe.0[0] = v & MASK_51;
        fe.0[1] = v >> 51;
        fe
    }

    /// Returns the canonical little-endian 32-byte encoding.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        // One carry pass leaves limbs below 2^51 + 19, so the integer
        // they spell is below 2p.
        let mut l = self.carry().0;
        // Compute q = 1 iff that integer is >= p (the nested carries of
        // +19 are exact for such limbs), then add 19q and drop bit 255.
        let mut q = (l[0].wrapping_add(19)) >> 51;
        q = (l[1].wrapping_add(q)) >> 51;
        q = (l[2].wrapping_add(q)) >> 51;
        q = (l[3].wrapping_add(q)) >> 51;
        q = (l[4].wrapping_add(q)) >> 51;
        l[0] = l[0].wrapping_add(19 * q);
        let mut carry = l[0] >> 51;
        l[0] &= MASK_51;
        for limb in l.iter_mut().skip(1) {
            *limb = limb.wrapping_add(carry);
            carry = *limb >> 51;
            *limb &= MASK_51;
        }
        // carry (the 2^255 bit) is discarded: value is now < p.
        let mut out = [0u8; 32];
        let put = |out: &mut [u8; 32], bit_off: usize, v: u64| {
            for i in 0..8 {
                let byte = bit_off / 8 + i;
                if byte < 32 {
                    out[byte] |= ((v << (bit_off % 8)) >> (8 * i)) as u8;
                }
            }
        };
        put(&mut out, 0, l[0]);
        put(&mut out, 51, l[1]);
        put(&mut out, 102, l[2]);
        put(&mut out, 153, l[3]);
        put(&mut out, 204, l[4]);
        out
    }

    /// One carry pass: every limb carries into the next at once, the top
    /// one wrapping around ×19, which keeps the dependency chain short.
    /// Limbs below 2^56 come out below 2^52 (each gains at most 19·2^5
    /// over 2^51).
    fn carry(self) -> Self {
        let l = self.0;
        let c = l.map(|x| x >> 51);
        FieldElement([
            (l[0] & MASK_51) + 19 * c[4],
            (l[1] & MASK_51) + c[0],
            (l[2] & MASK_51) + c[1],
            (l[3] & MASK_51) + c[2],
            (l[4] & MASK_51) + c[3],
        ])
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, rhs: &FieldElement) -> FieldElement {
        let mut l = [0u64; 5];
        for (out, (a, b)) in l.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *out = a + b;
        }
        FieldElement(l).carry()
    }

    /// Field subtraction.
    #[must_use]
    pub fn sub(&self, rhs: &FieldElement) -> FieldElement {
        // Add 16p before subtracting to keep limbs non-negative.
        const P16: [u64; 5] = [
            36028797018963664, // 16 * (2^51 - 19)
            36028797018963952, // 16 * (2^51 - 1)
            36028797018963952,
            36028797018963952,
            36028797018963952,
        ];
        let mut l = [0u64; 5];
        for i in 0..5 {
            l[i] = self.0[i] + P16[i] - rhs.0[i];
        }
        FieldElement(l).carry()
    }

    /// Field negation.
    #[must_use]
    pub fn neg(&self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, rhs: &FieldElement) -> FieldElement {
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let a = &self.0;
        let b = &rhs.0;
        // 2^255 ≡ 19: limb products that land at or above 2^255 wrap
        // around multiplied by 19, folded into b here (b < 2^52, so
        // 19·b < 2^57 and every column stays below 2^111).
        let b1 = 19 * b[1];
        let b2 = 19 * b[2];
        let b3 = 19 * b[3];
        let b4 = 19 * b[4];
        let c0 = m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4);
        let c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4);
        let c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4);
        let c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4);
        let c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);
        Self::reduce_columns([c0, c1, c2, c3, c4])
    }

    /// Field squaring: the 15 distinct limb products of `self · self`.
    #[must_use]
    pub fn square(&self) -> FieldElement {
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let a = &self.0;
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];
        let d0 = 2 * a[0];
        let d1 = 2 * a[1];
        let d2 = 2 * a[2];
        let c0 = m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19);
        let c1 = m(a[3], a3_19) + m(d0, a[1]) + m(d2, a4_19);
        let c2 = m(a[1], a[1]) + m(d0, a[2]) + m(2 * a[4], a3_19);
        let c3 = m(a[4], a4_19) + m(d0, a[3]) + m(d1, a[2]);
        let c4 = m(a[2], a[2]) + m(d0, a[4]) + m(d1, a[3]);
        Self::reduce_columns([c0, c1, c2, c3, c4])
    }

    /// `self` squared `k` times, i.e. `self^(2^k)`.
    #[must_use]
    pub fn square_n(&self, k: u32) -> FieldElement {
        let mut x = *self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Multiplication by a small scalar (used by the X25519 ladder's
    /// a24 = 121665 term).
    #[must_use]
    pub fn mul_small(&self, k: u32) -> FieldElement {
        let k = k as u128;
        let a = self.0.map(|x| x as u128);
        Self::reduce_columns([a[0] * k, a[1] * k, a[2] * k, a[3] * k, a[4] * k])
    }

    /// Reduces five column sums to limbs below 2^52: one carry pass over
    /// the columns, the top carry wrapped around ×19 into limb 0, and one
    /// final carry from limb 0 into limb 1. Columns are below 2^111 and
    /// the top one (which carries no ×19 terms) below 2^107.
    fn reduce_columns(c: [u128; 5]) -> FieldElement {
        let mut l = [0u64; 5];
        let mut carry = 0u128;
        for (limb, col) in l.iter_mut().zip(c) {
            let v = col + carry;
            *limb = (v as u64) & MASK_51;
            carry = v >> 51;
        }
        // carry < 2^56, so the ×19 wrap-around fits a u64.
        l[0] += 19 * (carry as u64);
        l[1] += l[0] >> 51;
        l[0] &= MASK_51;
        FieldElement(l)
    }

    /// Replaces `self` with `other` if `choice` is true, without
    /// branching on `choice`.
    pub fn conditional_assign(&mut self, other: &FieldElement, choice: bool) {
        let mask = ct::mask_u64(choice);
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a ^= mask & (*a ^ b);
        }
    }

    /// Swaps `a` and `b` if `choice` is true, without branching on
    /// `choice`.
    pub fn conditional_swap(a: &mut FieldElement, b: &mut FieldElement, choice: bool) {
        let mask = ct::mask_u64(choice);
        for (x, y) in a.0.iter_mut().zip(b.0.iter_mut()) {
            let t = mask & (*x ^ *y);
            *x ^= t;
            *y ^= t;
        }
    }

    /// The ref10 chain shared by [`Self::invert`] and [`Self::pow_p58`]:
    /// returns `(self^(2^250 − 1), self^11)`.
    fn pow22501(&self) -> (FieldElement, FieldElement) {
        let t2 = self.square(); // 2
        let t9 = self.mul(&t2.square_n(2)); // 9
        let t11 = t2.mul(&t9); // 11
        let t5_0 = t9.mul(&t11.square()); // 2^5 − 1
        let t10_0 = t5_0.square_n(5).mul(&t5_0); // 2^10 − 1
        let t20_0 = t10_0.square_n(10).mul(&t10_0); // 2^20 − 1
        let t40_0 = t20_0.square_n(20).mul(&t20_0); // 2^40 − 1
        let t50_0 = t40_0.square_n(10).mul(&t10_0); // 2^50 − 1
        let t100_0 = t50_0.square_n(50).mul(&t50_0); // 2^100 − 1
        let t200_0 = t100_0.square_n(100).mul(&t100_0); // 2^200 − 1
        let t250_0 = t200_0.square_n(50).mul(&t50_0); // 2^250 − 1
        (t250_0, t11)
    }

    /// Multiplicative inverse via Fermat's little theorem (x^(p−2)).
    ///
    /// Returns zero for zero input.
    #[must_use]
    pub fn invert(&self) -> FieldElement {
        // p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11.
        let (t250_0, t11) = self.pow22501();
        t250_0.square_n(5).mul(&t11)
    }

    /// x^((p−5)/8), the core exponentiation of the Ed25519 decompression
    /// square-root computation.
    #[must_use]
    pub fn pow_p58(&self) -> FieldElement {
        // (p − 5)/8 = 2^252 − 3 = (2^250 − 1)·2^2 + 1.
        let (t250_0, _) = self.pow22501();
        t250_0.square_n(2).mul(self)
    }

    /// True if the element is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        ct::eq(&self.to_bytes(), &[0u8; 32])
    }

    /// The "sign" bit used by point compression: the low bit of the
    /// canonical encoding.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn encoding_round_trip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(1);
        }
        bytes[31] &= 0x7f;
        let x = FieldElement::from_bytes(&bytes);
        assert_eq!(x.to_bytes(), bytes);
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(12345);
        let b = fe(99999);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), FieldElement::ZERO);
    }

    #[test]
    fn small_multiplication() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(6).mul_small(7), fe(42));
        assert_eq!(fe(5).square(), fe(25));
    }

    #[test]
    fn p_encodes_as_zero() {
        // p = 2^255 - 19 must canonically encode as 0.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = FieldElement::from_bytes(&p_bytes);
        assert_eq!(p.to_bytes(), [0u8; 32]);
        assert!(p.is_zero());
        // 2p in limbs below 2^52: the integer is ≥ 2p, so encoding needs
        // the carry pass before the single conditional subtraction.
        let m = 1u64 << 52;
        let two_p = FieldElement([m - 38, m - 2, m - 2, m - 2, m - 2]);
        assert_eq!(two_p.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn minus_one_times_minus_one() {
        let minus_one = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert_eq!(minus_one.mul(&minus_one), FieldElement::ONE);
        assert_eq!(minus_one.square(), FieldElement::ONE);
    }

    #[test]
    fn inversion() {
        let a = fe(1234567);
        assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let minus_one = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert_eq!(SQRT_M1.square(), minus_one);
    }

    #[test]
    fn sqrt_m1_is_two_to_the_p_minus_one_over_four() {
        // (p − 1)/4 = 2^253 − 5, by square-and-multiply over its bits.
        let two = fe(2);
        let mut acc = FieldElement::ONE;
        for bit in (0..253).rev() {
            acc = acc.square();
            if bit >= 3 || bit == 1 || bit == 0 {
                acc = acc.mul(&two);
            }
        }
        assert_eq!(acc, SQRT_M1);
    }

    #[test]
    fn limbs_stay_below_2_pow_52() {
        // Worst case: every limb at the invariant's bound.
        let big = FieldElement([(1 << 52) - 1; 5]);
        for x in [
            big.mul(&big),
            big.square(),
            big.add(&big),
            FieldElement::ZERO.sub(&big),
            big.mul_small(121_665),
        ] {
            assert!(x.0.iter().all(|&l| l < 1 << 52), "{:?}", x.0);
        }
        assert_eq!(big.square(), big.mul(&big));
    }

    #[test]
    fn conditional_helpers() {
        let (mut a, mut b) = (fe(3), fe(4));
        FieldElement::conditional_swap(&mut a, &mut b, false);
        assert_eq!((a, b), (fe(3), fe(4)));
        FieldElement::conditional_swap(&mut a, &mut b, true);
        assert_eq!((a, b), (fe(4), fe(3)));
        a.conditional_assign(&fe(9), false);
        assert_eq!(a, fe(4));
        a.conditional_assign(&fe(9), true);
        assert_eq!(a, fe(9));
    }

    #[test]
    fn distributivity_spot_check() {
        let a = fe(0xdead_beef);
        let b = fe(0xcafe_f00d);
        let c = fe(0x1234_5678);
        let left = a.mul(&b.add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert_eq!(left, right);
    }

    #[test]
    fn negation() {
        let a = fe(77);
        assert_eq!(a.add(&a.neg()), FieldElement::ZERO);
        assert!(!fe(2).is_negative());
        assert!(fe(1).is_negative());
    }
}
