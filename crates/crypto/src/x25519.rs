//! X25519 Diffie–Hellman key exchange (RFC 7748).
//!
//! ShEF's remote attestation derives a shared `SessionKey` between the
//! Security Kernel (holding the Attestation Key) and the IP Vendor
//! (holding an ephemeral Verification Key) via a Diffie–Hellman key
//! exchange (Fig. 3: `SessionKey = DHKE(VerifKey, AttestKey)`). This
//! module provides that primitive.
//!
//! # Example
//!
//! ```
//! use shef_crypto::x25519;
//!
//! let alice_secret = [1u8; 32];
//! let bob_secret = [2u8; 32];
//! let alice_public = x25519::public_key(&alice_secret);
//! let bob_public = x25519::public_key(&bob_secret);
//! assert_eq!(
//!     x25519::shared_secret(&alice_secret, &bob_public),
//!     x25519::shared_secret(&bob_secret, &alice_public),
//! );
//! ```

use crate::field25519::FieldElement;

/// The standard base point u-coordinate (9).
pub const BASEPOINT_U: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Clamps a 32-byte secret into an X25519 scalar per RFC 7748.
#[must_use]
pub fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// Computes the public key for `secret` (scalar multiplication of the
/// base point).
#[must_use]
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    scalar_mult(secret, &BASEPOINT_U)
}

/// Computes the shared secret between `secret` and a peer's public key.
///
/// The output is the raw u-coordinate; callers should run it through a
/// KDF ([`crate::hkdf`]) before use as a symmetric key, which is what
/// [`crate::ecies`] and the attestation protocol do.
#[must_use]
pub fn shared_secret(secret: &[u8; 32], peer_public: &[u8; 32]) -> [u8; 32] {
    scalar_mult(secret, peer_public)
}

/// The X25519 function: Montgomery-ladder scalar multiplication on the
/// u-coordinate.
///
/// Every step runs the same field operations, and the ladder's swaps go
/// through [`FieldElement::conditional_swap`], so neither control flow
/// nor memory access depends on the scalar's bits.
#[must_use]
pub fn scalar_mult(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(*scalar);
    let x1 = FieldElement::from_bytes(u);
    let mut x2 = FieldElement::ONE;
    let mut z2 = FieldElement::ZERO;
    let mut x3 = x1;
    let mut z3 = FieldElement::ONE;
    let mut swap = false;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
        swap ^= k_t;
        FieldElement::conditional_swap(&mut x2, &mut x3, swap);
        FieldElement::conditional_swap(&mut z2, &mut z3, swap);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121_665)));
    }
    FieldElement::conditional_swap(&mut x2, &mut x3, swap);
    FieldElement::conditional_swap(&mut z2, &mut z3, swap);
    x2.mul(&z2.invert()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_hex, to_hex};

    #[test]
    fn rfc7748_vector_1() {
        let k: [u8; 32] =
            from_hex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
                .unwrap()
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            from_hex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
                .unwrap()
                .try_into()
                .unwrap();
        assert_eq!(
            to_hex(&scalar_mult(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let k: [u8; 32] =
            from_hex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
                .unwrap()
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            from_hex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
                .unwrap()
                .try_into()
                .unwrap();
        assert_eq!(
            to_hex(&scalar_mult(&k, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_iterated_once() {
        let mut k = BASEPOINT_U;
        let u = BASEPOINT_U;
        k = scalar_mult(&k, &u);
        assert_eq!(
            to_hex(&k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    #[test]
    fn diffie_hellman_agreement() {
        let a = [0x11u8; 32];
        let b = [0x22u8; 32];
        let pa = public_key(&a);
        let pb = public_key(&b);
        let s1 = shared_secret(&a, &pb);
        let s2 = shared_secret(&b, &pa);
        assert_eq!(s1, s2);
        assert_ne!(s1, [0u8; 32]);
    }

    #[test]
    fn clamping_is_idempotent() {
        let k = [0xffu8; 32];
        assert_eq!(clamp(clamp(k)), clamp(k));
        let c = clamp(k);
        assert_eq!(c[0] & 7, 0);
        assert_eq!(c[31] & 0x80, 0);
        assert_eq!(c[31] & 0x40, 0x40);
    }
}
