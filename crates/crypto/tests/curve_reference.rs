//! Differential tests of the Curve25519 stack — field, edwards25519
//! group, Ed25519 and X25519 — against a textbook reference.
//!
//! The reference is deliberately naive and variable-time: a radix-51
//! field whose squaring is a multiplication and whose inversion is
//! bit-serial square-and-multiply, the unified addition law used for
//! doubling too, double-and-add scalar multiplication that branches on
//! every scalar bit, and an X25519 ladder that swaps with `if`. It lives
//! here, outside `src/`, only as an oracle. Field inputs are full-width
//! 32-byte encodings, including the non-canonical values ≥ p.

use proptest::prelude::*;
use shef_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use shef_crypto::edwards::EdwardsPoint;
use shef_crypto::field25519::FieldElement;
use shef_crypto::scalar25519::Scalar;
use shef_crypto::sha2::Sha512;
use shef_crypto::{x25519, CryptoError};

mod reference {
    use std::sync::OnceLock;

    const MASK_51: u64 = (1 << 51) - 1;

    /// GF(2^255 − 19) in five 51-bit limbs, every result fully carried.
    #[derive(Clone, Copy, Debug)]
    pub struct Fe([u64; 5]);

    impl PartialEq for Fe {
        fn eq(&self, other: &Self) -> bool {
            self.to_bytes() == other.to_bytes()
        }
    }

    impl Fe {
        pub const ZERO: Fe = Fe([0; 5]);
        pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

        pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
            let mut v = [0u64; 4];
            for (i, word) in v.iter_mut().enumerate() {
                *word = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
            }
            let v3 = v[3] & (u64::MAX >> 1); // drop bit 255
            Fe([
                v[0] & MASK_51,
                ((v[0] >> 51) | (v[1] << 13)) & MASK_51,
                ((v[1] >> 38) | (v[2] << 26)) & MASK_51,
                ((v[2] >> 25) | (v3 << 39)) & MASK_51,
                v3 >> 12,
            ])
        }

        pub fn to_bytes(self) -> [u8; 32] {
            // Fully carry, then subtract p while the value is ≥ p.
            let mut l = self.carry().carry().0;
            loop {
                let ge_p = l[4] == MASK_51
                    && l[3] == MASK_51
                    && l[2] == MASK_51
                    && l[1] == MASK_51
                    && l[0] >= MASK_51 - 18;
                if !ge_p {
                    break;
                }
                l = [l[0] - (MASK_51 - 18), 0, 0, 0, 0];
            }
            let v = [
                l[0] | (l[1] << 51),
                (l[1] >> 13) | (l[2] << 38),
                (l[2] >> 26) | (l[3] << 25),
                (l[3] >> 39) | (l[4] << 12),
            ];
            let mut out = [0u8; 32];
            for (i, word) in v.iter().enumerate() {
                out[8 * i..8 * i + 8].copy_from_slice(&word.to_le_bytes());
            }
            out
        }

        fn carry(self) -> Fe {
            let mut l = self.0;
            for _ in 0..2 {
                let mut carry = 0u64;
                for limb in l.iter_mut() {
                    let v = *limb + carry;
                    carry = v >> 51;
                    *limb = v & MASK_51;
                }
                l[0] += 19 * carry;
            }
            Fe(l)
        }

        pub fn add(&self, rhs: &Fe) -> Fe {
            Fe(core::array::from_fn(|i| self.0[i] + rhs.0[i])).carry()
        }

        pub fn sub(&self, rhs: &Fe) -> Fe {
            // 16p, limb by limb, keeps every limb non-negative.
            let p16 = |i: usize| {
                if i == 0 {
                    16 * (MASK_51 - 18)
                } else {
                    16 * MASK_51
                }
            };
            Fe(core::array::from_fn(|i| self.0[i] + p16(i) - rhs.0[i])).carry()
        }

        pub fn neg(&self) -> Fe {
            Fe::ZERO.sub(self)
        }

        /// Schoolbook product with both wrap-around passes on u128
        /// columns.
        pub fn mul(&self, rhs: &Fe) -> Fe {
            let a = self.0.map(u128::from);
            let b = rhs.0.map(u128::from);
            let mut c = [0u128; 5];
            for i in 0..5 {
                for j in 0..5 {
                    let k = i + j;
                    if k < 5 {
                        c[k] += a[i] * b[j];
                    } else {
                        c[k - 5] += 19 * a[i] * b[j];
                    }
                }
            }
            for _ in 0..2 {
                let mut carry = 0u128;
                for limb in c.iter_mut() {
                    let v = *limb + carry;
                    carry = v >> 51;
                    *limb = v & u128::from(MASK_51);
                }
                c[0] += 19 * carry;
            }
            Fe(c.map(|x| x as u64)).carry()
        }

        pub fn square(&self) -> Fe {
            self.mul(self)
        }

        pub fn mul_small(&self, k: u64) -> Fe {
            self.mul(&Fe([k, 0, 0, 0, 0]))
        }

        /// Square-and-multiply over a big-endian exponent.
        pub fn pow_be(&self, exponent: &[u8; 32]) -> Fe {
            let mut result = Fe::ONE;
            for byte in exponent {
                for bit in (0..8).rev() {
                    result = result.square();
                    if (byte >> bit) & 1 == 1 {
                        result = result.mul(self);
                    }
                }
            }
            result
        }

        pub fn invert(&self) -> Fe {
            // p − 2 = 2^255 − 21.
            let mut exp = [0xffu8; 32];
            exp[0] = 0x7f;
            exp[31] = 0xeb;
            self.pow_be(&exp)
        }

        pub fn pow_p58(&self) -> Fe {
            // (p − 5)/8 = 2^252 − 3.
            let mut exp = [0xffu8; 32];
            exp[0] = 0x0f;
            exp[31] = 0xfd;
            self.pow_be(&exp)
        }

        pub fn sqrt_m1() -> Fe {
            // (p − 1)/4 = 2^253 − 5.
            let mut exp = [0xffu8; 32];
            exp[0] = 0x1f;
            exp[31] = 0xfb;
            Fe([2, 0, 0, 0, 0]).pow_be(&exp)
        }

        pub fn is_negative(&self) -> bool {
            self.to_bytes()[0] & 1 == 1
        }

        pub fn is_zero(&self) -> bool {
            self.to_bytes() == [0; 32]
        }
    }

    /// d = −121665/121666, derived once by inversion.
    fn d() -> Fe {
        static D: OnceLock<Fe> = OnceLock::new();
        *D.get_or_init(|| {
            Fe([121_665, 0, 0, 0, 0])
                .neg()
                .mul(&Fe([121_666, 0, 0, 0, 0]).invert())
        })
    }

    /// An edwards25519 point in extended coordinates.
    #[derive(Clone, Copy, Debug)]
    pub struct Point {
        x: Fe,
        y: Fe,
        z: Fe,
        t: Fe,
    }

    impl PartialEq for Point {
        fn eq(&self, other: &Self) -> bool {
            self.x.mul(&other.z) == other.x.mul(&self.z)
                && self.y.mul(&other.z) == other.y.mul(&self.z)
        }
    }

    impl Point {
        pub fn identity() -> Point {
            Point {
                x: Fe::ZERO,
                y: Fe::ONE,
                z: Fe::ONE,
                t: Fe::ZERO,
            }
        }

        pub fn basepoint() -> Point {
            let mut compressed = [0x66u8; 32];
            compressed[0] = 0x58;
            Point::decompress(&compressed).unwrap()
        }

        /// The unified addition law, also used for doubling.
        pub fn add(&self, other: &Point) -> Point {
            let d2 = d().add(&d());
            let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
            let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
            let c = self.t.mul(&d2).mul(&other.t);
            let dd = self.z.add(&self.z).mul(&other.z);
            let (e, f, g, h) = (b.sub(&a), dd.sub(&c), dd.add(&c), b.add(&a));
            Point {
                x: e.mul(&f),
                y: g.mul(&h),
                t: e.mul(&h),
                z: f.mul(&g),
            }
        }

        /// Double-and-add from the top bit, branching on every bit.
        pub fn mul_bits(&self, scalar_le: &[u8; 32]) -> Point {
            let mut acc = Point::identity();
            for byte in scalar_le.iter().rev() {
                for bit in (0..8).rev() {
                    acc = acc.add(&acc);
                    if (byte >> bit) & 1 == 1 {
                        acc = acc.add(self);
                    }
                }
            }
            acc
        }

        pub fn compress(&self) -> [u8; 32] {
            let zinv = self.z.invert();
            let mut out = self.y.mul(&zinv).to_bytes();
            if self.x.mul(&zinv).is_negative() {
                out[31] |= 0x80;
            }
            out
        }

        pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
            let sign = bytes[31] >> 7;
            let mut y_bytes = *bytes;
            y_bytes[31] &= 0x7f;
            let y = Fe::from_bytes(&y_bytes);
            if y.to_bytes() != y_bytes {
                return None;
            }
            let yy = y.square();
            let u = yy.sub(&Fe::ONE);
            let v = d().mul(&yy).add(&Fe::ONE);
            let v3 = v.square().mul(&v);
            let v7 = v3.square().mul(&v);
            let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
            let check = v.mul(&x.square());
            if check == u.neg() {
                x = x.mul(&Fe::sqrt_m1());
            } else if check != u {
                return None;
            }
            if x.is_zero() && sign == 1 {
                return None;
            }
            if u8::from(x.is_negative()) != sign {
                x = x.neg();
            }
            Some(Point {
                t: x.mul(&y),
                x,
                y,
                z: Fe::ONE,
            })
        }
    }

    /// The RFC 7748 ladder with branching swaps.
    pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
        let mut k = *scalar;
        k[0] &= 248;
        k[31] &= 127;
        k[31] |= 64;
        let x1 = Fe::from_bytes(u);
        let (mut x2, mut z2, mut x3, mut z3) = (Fe::ONE, Fe::ZERO, x1, Fe::ONE);
        let mut swap = false;
        for t in (0..255).rev() {
            let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
            swap ^= k_t;
            if swap {
                core::mem::swap(&mut x2, &mut x3);
                core::mem::swap(&mut z2, &mut z3);
            }
            swap = k_t;
            let a = x2.add(&z2);
            let aa = a.square();
            let b = x2.sub(&z2);
            let bb = b.square();
            let e = aa.sub(&bb);
            let da = x3.sub(&z3).mul(&a);
            let cb = x3.add(&z3).mul(&b);
            x3 = da.add(&cb).square();
            z3 = x1.mul(&da.sub(&cb).square());
            x2 = aa.mul(&bb);
            z2 = e.mul(&aa.add(&e.mul_small(121_665)));
        }
        if swap {
            core::mem::swap(&mut x2, &mut x3);
            core::mem::swap(&mut z2, &mut z3);
        }
        x2.mul(&z2.invert()).to_bytes()
    }
}

use reference::{Fe, Point};

/// ℓ, the prime order of the base point, little-endian.
const ELL: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
];

/// p = 2^255 − 19, little-endian.
const P: [u8; 32] = {
    let mut p = [0xffu8; 32];
    p[0] = 0xed;
    p[31] = 0x7f;
    p
};

fn ell_minus_one() -> [u8; 32] {
    let mut s = ELL;
    s[0] -= 1;
    s
}

fn clamp(mut s: [u8; 32]) -> [u8; 32] {
    s[0] &= 248;
    s[31] &= 127;
    s[31] |= 64;
    s
}

/// Full-width field encodings: uniform 32-byte strings (top bit
/// included), the 19 non-canonical values p..2^255 − 1 with either top
/// bit, and small values.
fn fe_bytes() -> impl Strategy<Value = [u8; 32]> {
    prop_oneof![
        any::<[u8; 32]>(),
        any::<[u8; 32]>(),
        (0u8..19, any::<bool>()).prop_map(|(k, top)| {
            let mut b = P;
            b[0] += k;
            b[31] |= u8::from(top) << 7;
            b
        }),
        any::<u8>().prop_map(|v| {
            let mut b = [0u8; 32];
            b[0] = v;
            b
        }),
    ]
}

/// 256-bit scalars: uniform, clamped, and the edge cases.
fn scalar_bytes() -> impl Strategy<Value = [u8; 32]> {
    prop_oneof![
        any::<[u8; 32]>(),
        any::<[u8; 32]>().prop_map(clamp),
        (0usize..6).prop_map(|i| edge_scalars()[i]),
    ]
}

fn edge_scalars() -> [[u8; 32]; 6] {
    let mut one = [0u8; 32];
    one[0] = 1;
    [
        [0; 32],
        one,
        ell_minus_one(),
        ELL,
        [0xff; 32],
        clamp([0; 32]),
    ]
}

/// The first valid point encoding at or after `bytes` (bumping byte 0);
/// such points generally have a small-order component.
fn point_encoding(mut bytes: [u8; 32]) -> [u8; 32] {
    while Point::decompress(&bytes).is_none() {
        bytes[0] = bytes[0].wrapping_add(1);
    }
    bytes
}

fn fe(bytes: &[u8; 32]) -> (FieldElement, Fe) {
    (FieldElement::from_bytes(bytes), Fe::from_bytes(bytes))
}

fn ref_keypair(seed: &[u8; 32]) -> ([u8; 32], [u8; 32], [u8; 32]) {
    let digest = Sha512::digest(seed);
    let scalar = clamp(digest[..32].try_into().unwrap());
    let prefix: [u8; 32] = digest[32..].try_into().unwrap();
    let public = Point::basepoint().mul_bits(&scalar).compress();
    (scalar, prefix, public)
}

fn ref_sign(seed: &[u8; 32], msg: &[u8]) -> [u8; 64] {
    let (scalar, prefix, public) = ref_keypair(seed);
    let mut h = Sha512::new();
    h.update(&prefix);
    h.update(msg);
    let r = Scalar::from_bytes_wide(&h.finalize());
    let r_bytes = Point::basepoint().mul_bits(&r.to_bytes()).compress();
    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(&public);
    h.update(msg);
    let k = Scalar::from_bytes_wide(&h.finalize());
    let s = k.mul_add(&Scalar::from_bytes(&scalar), &r);
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&r_bytes);
    sig[32..].copy_from_slice(&s.to_bytes());
    sig
}

fn ref_verify(public: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> Result<(), CryptoError> {
    let a = Point::decompress(public).ok_or(CryptoError::InvalidPoint)?;
    let r_bytes: [u8; 32] = sig[..32].try_into().unwrap();
    let s_bytes: [u8; 32] = sig[32..].try_into().unwrap();
    // Canonical S: S < ℓ, compared as little-endian integers.
    if s_bytes.iter().rev().cmp(ELL.iter().rev()) != core::cmp::Ordering::Less {
        return Err(CryptoError::BadSignature);
    }
    let r = Point::decompress(&r_bytes).ok_or(CryptoError::InvalidPoint)?;
    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(public);
    h.update(msg);
    let k = Scalar::from_bytes_wide(&h.finalize());
    let lhs = Point::basepoint().mul_bits(&s_bytes);
    let rhs = r.add(&a.mul_bits(&k.to_bytes()));
    if lhs == rhs {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

#[test]
fn reference_matches_rfc8032_test_1() {
    // Pins the oracle itself to the standard.
    let seed: [u8; 32] =
        shef_crypto::from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
            .unwrap()
            .try_into()
            .unwrap();
    let sig = ref_sign(&seed, b"");
    assert_eq!(
        shef_crypto::to_hex(&sig),
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
         5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    );
}

#[test]
fn scalar_mults_match_reference_on_edge_scalars() {
    let torsioned = point_encoding([0x3c; 32]);
    let (p, p_ref) = (
        EdwardsPoint::decompress(&torsioned).unwrap(),
        Point::decompress(&torsioned).unwrap(),
    );
    let b_ref = Point::basepoint();
    for s in edge_scalars() {
        let expected = b_ref.mul_bits(&s).compress();
        assert_eq!(EdwardsPoint::mul_base(&s).compress(), expected);
        assert_eq!(EdwardsPoint::basepoint().mul_bits(&s).compress(), expected);
        assert_eq!(p.mul_bits(&s).compress(), p_ref.mul_bits(&s).compress());
    }
}

proptest! {
    #[test]
    fn field_mul_matches_reference(a in fe_bytes(), b in fe_bytes()) {
        let ((fa, ra), (fb, rb)) = (fe(&a), fe(&b));
        prop_assert_eq!(fa.mul(&fb).to_bytes(), ra.mul(&rb).to_bytes());
        prop_assert_eq!(fa.add(&fb).to_bytes(), ra.add(&rb).to_bytes());
        prop_assert_eq!(fa.sub(&fb).to_bytes(), ra.sub(&rb).to_bytes());
        prop_assert_eq!(fa.mul_small(121_665).to_bytes(), ra.mul_small(121_665).to_bytes());
        // Operands straight out of add/sub, limbs not fully carried.
        let (lazy, lazy_ref) = (fa.sub(&fb).add(&fa), ra.sub(&rb).add(&ra));
        prop_assert_eq!(lazy.mul(&fa.add(&fb)).to_bytes(), lazy_ref.mul(&ra.add(&rb)).to_bytes());
        prop_assert_eq!(lazy.square().to_bytes(), lazy_ref.square().to_bytes());
    }

    #[test]
    fn field_square_matches_mul(a in fe_bytes(), b in fe_bytes()) {
        let (fa, fb) = (FieldElement::from_bytes(&a), FieldElement::from_bytes(&b));
        prop_assert_eq!(fa.square(), fa.mul(&fa));
        let diff = fa.sub(&fb);
        prop_assert_eq!(diff.square(), diff.mul(&diff));
        prop_assert_eq!(fa.square_n(3), fa.square().square().square());
    }

    #[test]
    fn field_invert_and_pow_p58_match_reference(a in fe_bytes()) {
        let (fa, ra) = fe(&a);
        prop_assert_eq!(fa.invert().to_bytes(), ra.invert().to_bytes());
        prop_assert_eq!(fa.pow_p58().to_bytes(), ra.pow_p58().to_bytes());
    }

    #[test]
    fn double_matches_add(enc in any::<[u8; 32]>()) {
        let enc = point_encoding(enc);
        let p = EdwardsPoint::decompress(&enc).unwrap();
        let p_ref = Point::decompress(&enc).unwrap();
        prop_assert_eq!(p.double(), p.add(&p));
        prop_assert_eq!(p.double().compress(), p_ref.add(&p_ref).compress());
        let q = p.double().add(&p);
        prop_assert_eq!(q.double(), q.add(&q));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mul_base_matches_reference(s in scalar_bytes()) {
        prop_assert_eq!(
            EdwardsPoint::mul_base(&s).compress(),
            Point::basepoint().mul_bits(&s).compress()
        );
    }

    #[test]
    fn mul_bits_matches_reference(enc in any::<[u8; 32]>(), s in scalar_bytes()) {
        let enc = point_encoding(enc);
        let p = EdwardsPoint::decompress(&enc).unwrap();
        let p_ref = Point::decompress(&enc).unwrap();
        prop_assert_eq!(p.mul_bits(&s).compress(), p_ref.mul_bits(&s).compress());
    }

    #[test]
    fn signing_matches_reference(seed in any::<[u8; 32]>(),
                                 msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let key = SigningKey::from_seed(&seed);
        let (_, _, public) = ref_keypair(&seed);
        prop_assert_eq!(key.verifying_key().0, public);
        prop_assert_eq!(key.sign(&msg).0, ref_sign(&seed, &msg));
    }

    #[test]
    fn verify_verdict_matches_reference(seed in any::<[u8; 32]>(),
                                        msg in proptest::collection::vec(any::<u8>(), 1..64),
                                        target in 0u8..5, idx in any::<u8>(), bit in 0u8..8) {
        let key = SigningKey::from_seed(&seed);
        let mut public = key.verifying_key().0;
        let mut sig = key.sign(&msg).0;
        let mut msg = msg;
        // 0: untouched; 1: R; 2: S; 3: message; 4: key.
        let flip = 1u8 << bit;
        match target {
            1 => sig[usize::from(idx) % 32] ^= flip,
            2 => sig[32 + usize::from(idx) % 32] ^= flip,
            3 => {
                let i = usize::from(idx) % msg.len();
                msg[i] ^= flip;
            }
            4 => public[usize::from(idx) % 32] ^= flip,
            _ => {}
        }
        let verdict = VerifyingKey(public).verify(&msg, &Signature(sig));
        prop_assert_eq!(verdict, ref_verify(&public, &msg, &sig));
        if target == 0 {
            prop_assert!(verdict.is_ok());
        }
    }

    #[test]
    fn x25519_matches_reference(k in any::<[u8; 32]>(), u in fe_bytes()) {
        prop_assert_eq!(x25519::scalar_mult(&k, &u), reference::x25519(&k, &u));
    }
}
