//! Arithmetic modulo the Curve25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.
//!
//! Used by [`crate::ed25519`] for signature scalars. Throughput is not a
//! concern here (scalars are only touched during boot/attestation), so a
//! simple shift-and-subtract reduction keeps the code auditable. Its
//! conditional subtractions are masked, not branched: the signing nonce
//! and secret key pass through here.

/// ℓ as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar in the range [0, ℓ).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(pub(crate) [u64; 4]);

impl core::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Scalar({})", crate::to_hex(&self.to_bytes()))
    }
}

impl Default for Scalar {
    fn default() -> Self {
        Scalar::ZERO
    }
}

fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// `a − b` mod 2^256, and whether it borrowed (a < b).
fn sub(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut diff = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (v, b1) = a[i].overflowing_sub(b[i]);
        let (v, b2) = v.overflowing_sub(borrow as u64);
        diff[i] = v;
        borrow = b1 | b2;
    }
    (diff, borrow)
}

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces a 512-bit little-endian value modulo ℓ.
    ///
    /// This is the operation Ed25519 applies to SHA-512 digests.
    #[must_use]
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Scalar(reduce_wide(limbs))
    }

    /// Interprets a 32-byte little-endian value, reducing mod ℓ.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Canonical little-endian 32-byte encoding.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Modular addition.
    #[must_use]
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        let mut limbs = [0u64; 4];
        let mut carry = 0u64;
        for (out, (a, b)) in limbs.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            let (v, c1) = a.overflowing_add(*b);
            let (v, c2) = v.overflowing_add(carry);
            *out = v;
            carry = (c1 | c2) as u64;
        }
        // Inputs are < ℓ < 2^253, so no carry out of 256 bits is possible.
        debug_assert_eq!(carry, 0);
        reduce_once(&mut limbs);
        Scalar(limbs)
    }

    /// Modular multiplication.
    #[must_use]
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = wide[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(reduce_wide(wide))
    }

    /// Computes `self * a + b` mod ℓ — the Ed25519 `S = r + k·a` step.
    #[must_use]
    pub fn mul_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        self.mul(a).add(b)
    }

    /// True if the scalar is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// True if `bytes` is the canonical encoding of a scalar < ℓ.
    ///
    /// Ed25519 verification rejects non-canonical `S` values to prevent
    /// malleability.
    #[must_use]
    pub fn is_canonical(bytes: &[u8; 32]) -> bool {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        !geq(&limbs, &L)
    }
}

/// Reduces a 512-bit value (8 little-endian limbs) modulo ℓ by binary
/// shift-and-subtract over a 256-bit accumulator.
fn reduce_wide(limbs: [u64; 8]) -> [u64; 4] {
    let mut r = [0u64; 4];
    for bit in (0..512).rev() {
        // r = 2r (+ bit). r stays < ℓ < 2^253 so the shift cannot overflow.
        let mut carry = 0u64;
        for limb in r.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        debug_assert_eq!(carry, 0);
        r[0] |= (limbs[bit / 64] >> (bit % 64)) & 1;
        reduce_once(&mut r);
    }
    r
}

/// Subtracts ℓ from `a` if `a ≥ ℓ` (for `a < 2ℓ`), selecting the result
/// with masks so that secret scalars never steer a branch.
fn reduce_once(a: &mut [u64; 4]) {
    let (diff, borrow) = sub(a, &L);
    // No borrow means a ≥ ℓ: keep the difference.
    let keep_diff = crate::ct::mask_u64(!borrow);
    for (limb, d) in a.iter_mut().zip(diff) {
        *limb ^= keep_diff & (*limb ^ d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Scalar::ZERO.is_zero());
        assert_eq!(Scalar::ONE.mul(&Scalar::ONE), Scalar::ONE);
        assert_eq!(Scalar::ONE.add(&Scalar::ZERO), Scalar::ONE);
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut l_bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            l_bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert!(Scalar::from_bytes(&l_bytes).is_zero());
        assert!(!Scalar::is_canonical(&l_bytes));
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let (limbs, borrow) = sub(&L, &[1, 0, 0, 0]);
        assert!(!borrow);
        let s = Scalar(limbs);
        assert!(Scalar::is_canonical(&s.to_bytes()));
        // (ℓ-1) + 1 ≡ 0 mod ℓ
        assert!(s.add(&Scalar::ONE).is_zero());
        // (ℓ-1)² ≡ 1 mod ℓ
        assert_eq!(s.mul(&s), Scalar::ONE);
    }

    #[test]
    fn small_arithmetic() {
        let six = Scalar([6, 0, 0, 0]);
        let seven = Scalar([7, 0, 0, 0]);
        assert_eq!(six.mul(&seven), Scalar([42, 0, 0, 0]));
        assert_eq!(six.mul_add(&seven, &Scalar::ONE), Scalar([43, 0, 0, 0]));
    }

    #[test]
    fn wide_reduction_matches_mod() {
        // 2^256 mod ℓ is a known constant:
        // 2^256 ≡ 0x0ffffffffffffffffffffffffffffffec6ef5bf4737dcf70d6ec31748d98951d...
        // rather than hardcode, verify via algebra: from_bytes_wide(2^256)
        // equals from_bytes(1) shifted via repeated doubling 256 times.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        let direct = Scalar::from_bytes_wide(&wide);
        let mut doubled = Scalar::ONE;
        for _ in 0..256 {
            doubled = doubled.add(&doubled);
        }
        assert_eq!(direct, doubled);
    }

    #[test]
    fn round_trip_encoding() {
        let s = Scalar([0x1234, 0x5678, 0x9abc, 0x0def]);
        assert_eq!(Scalar::from_bytes(&s.to_bytes()), s);
    }
}
