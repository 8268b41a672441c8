//! Property-based tests over the cryptographic substrate.

use proptest::prelude::*;
use shef_crypto::aes::Aes;
use shef_crypto::authenc::{AuthEncKey, MacAlgorithm, Sealed};
use shef_crypto::ctr::{ctr_xor, ChunkIv};
use shef_crypto::drbg::HmacDrbg;
use shef_crypto::ecies::{decrypt, encrypt, EciesKeyPair};
use shef_crypto::ed25519::SigningKey;
use shef_crypto::field25519::FieldElement;
use shef_crypto::gcm::AesGcm;
use shef_crypto::hkdf;
use shef_crypto::hmac::{hmac_sha256, hmac_sha256_multi, HmacSha256};
use shef_crypto::pmac::pmac;
use shef_crypto::scalar25519::Scalar;
use shef_crypto::sha2::{Sha256, Sha512};
use shef_crypto::x25519;

proptest! {
    #[test]
    fn ctr_involution(key in any::<[u8; 16]>(), nonce in any::<[u8; 8]>(),
                      idx in any::<u32>(), data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let aes = Aes::new_128(&key);
        let iv = ChunkIv::for_chunk(nonce, idx);
        let mut buf = data.clone();
        ctr_xor(&aes, &iv, &mut buf);
        ctr_xor(&aes, &iv, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn sha256_incremental_any_split(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha512_incremental_any_split(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha512::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha512::digest(&data));
    }

    #[test]
    fn hmac_key_sensitivity(key1 in any::<[u8; 16]>(), key2 in any::<[u8; 16]>(),
                            msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assume!(key1 != key2);
        prop_assert_ne!(hmac_sha256(&key1, &msg), hmac_sha256(&key2, &msg));
    }

    #[test]
    fn hmac_cached_pads_match_one_shot(key in proptest::collection::vec(any::<u8>(), 0..100),
                                       msg in proptest::collection::vec(any::<u8>(), 0..300),
                                       cuts in any::<(u16, u16)>()) {
        // Textbook RFC 2104, hashing the pads on every call.
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&Sha256::digest(&key));
        } else {
            block[..key.len()].copy_from_slice(&key);
        }
        let mut inner = Sha256::new();
        inner.update(&block.map(|b| b ^ 0x36));
        inner.update(&msg);
        let mut outer = Sha256::new();
        outer.update(&block.map(|b| b ^ 0x5c));
        outer.update(&inner.finalize());
        let expected = outer.finalize();

        let a = usize::from(cuts.0) % (msg.len() + 1);
        let b = a + usize::from(cuts.1) % (msg.len() - a + 1);
        let parts: [&[u8]; 3] = [&msg[..a], &msg[a..b], &msg[b..]];
        let cached = HmacSha256::new(&key);
        prop_assert_eq!(cached.mac_multi(&parts), expected);
        prop_assert_eq!(cached.mac_multi(&[&msg]), expected);
        prop_assert_eq!(hmac_sha256_multi(&key, &parts), expected);
    }

    #[test]
    fn pmac_message_sensitivity(key in any::<[u8; 16]>(),
                                msg in proptest::collection::vec(any::<u8>(), 0..128),
                                flip_byte in any::<u8>(), flip_bit in 0u8..8) {
        prop_assume!(!msg.is_empty());
        let aes = Aes::new_128(&key);
        let tag = pmac(&aes, &msg);
        let mut tampered = msg.clone();
        let idx = (flip_byte as usize) % tampered.len();
        tampered[idx] ^= 1 << flip_bit;
        prop_assert_ne!(pmac(&aes, &tampered), tag);
    }

    #[test]
    fn authenc_round_trip_and_tamper(master in any::<[u8; 32]>(),
                                     pt in proptest::collection::vec(any::<u8>(), 0..300),
                                     ad in proptest::collection::vec(any::<u8>(), 0..32)) {
        for alg in [MacAlgorithm::HmacSha256, MacAlgorithm::PmacAes, MacAlgorithm::AesGcm] {
            let mut key = AuthEncKey::from_bytes(master, alg);
            let sealed = key.seal(&pt, &ad);
            prop_assert_eq!(key.open(&sealed, &ad).unwrap(), pt.clone());
            if !sealed.ciphertext.is_empty() {
                let mut bad = sealed.clone();
                bad.ciphertext[0] ^= 1;
                prop_assert!(key.open(&bad, &ad).is_err());
            }
            let mut bad_tag = sealed;
            bad_tag.tag[0] ^= 1;
            prop_assert!(key.open(&bad_tag, &ad).is_err());
        }
    }

    #[test]
    fn sealed_wire_round_trip(iv in any::<[u8; 12]>(), tag in any::<[u8; 16]>(),
                              ct in proptest::collection::vec(any::<u8>(), 0..100)) {
        let sealed = Sealed { iv, tag, ciphertext: ct };
        prop_assert_eq!(Sealed::from_bytes(&sealed.to_bytes()).unwrap(), sealed);
    }

    #[test]
    fn field_ring_axioms(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
        // Full-width encodings: every limb populated.
        let fa = FieldElement::from_bytes(&a);
        let fb = FieldElement::from_bytes(&b);
        let fc = FieldElement::from_bytes(&c);
        prop_assert_eq!(fa.add(&fb), fb.add(&fa));
        prop_assert_eq!(fa.mul(&fb), fb.mul(&fa));
        prop_assert_eq!(fa.mul(&fb.add(&fc)), fa.mul(&fb).add(&fa.mul(&fc)));
    }

    #[test]
    fn field_inversion(a in any::<[u8; 32]>()) {
        let fa = FieldElement::from_bytes(&a);
        prop_assume!(!fa.is_zero());
        prop_assert_eq!(fa.mul(&fa.invert()), FieldElement::ONE);
        // (x^((p−5)/8))^8 · x^4 = x^(p−1) = 1.
        prop_assert_eq!(fa.pow_p58().square_n(3).mul(&fa.square_n(2)), FieldElement::ONE);
    }

    #[test]
    fn field_bytes_round_trip(mut bytes in any::<[u8; 32]>()) {
        bytes[31] &= 0x7f;
        // Skip the 19 non-canonical encodings >= p.
        let fe = FieldElement::from_bytes(&bytes);
        let re = FieldElement::from_bytes(&fe.to_bytes());
        prop_assert_eq!(fe, re);
    }

    #[test]
    fn scalar_ring_axioms(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let sa = Scalar::from_bytes(&a);
        let sb = Scalar::from_bytes(&b);
        prop_assert_eq!(sa.add(&sb), sb.add(&sa));
        prop_assert_eq!(sa.mul(&sb), sb.mul(&sa));
        prop_assert_eq!(sa.mul(&Scalar::ONE), sa);
        prop_assert_eq!(sa.add(&Scalar::ZERO), sa);
    }

    #[test]
    fn x25519_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let pa = x25519::public_key(&a);
        let pb = x25519::public_key(&b);
        prop_assert_eq!(x25519::shared_secret(&a, &pb), x25519::shared_secret(&b, &pa));
    }

    #[test]
    fn ed25519_sign_verify(seed in any::<[u8; 32]>(),
                           msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn ed25519_rejects_bit_flips(seed in any::<[u8; 32]>(),
                                 msg in proptest::collection::vec(any::<u8>(), 1..64),
                                 idx in any::<u8>(), bit in 0u8..8) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        let mut tampered = msg.clone();
        let i = (idx as usize) % tampered.len();
        tampered[i] ^= 1 << bit;
        prop_assume!(tampered != msg);
        prop_assert!(key.verifying_key().verify(&tampered, &sig).is_err());
    }

    #[test]
    fn ecies_round_trip(seed in any::<[u8; 16]>(),
                        pt in proptest::collection::vec(any::<u8>(), 0..200)) {
        let kp = EciesKeyPair::from_seed(&seed);
        let ct = encrypt(&kp.public_key(), &pt, b"ad");
        prop_assert_eq!(decrypt(&kp, &ct, b"ad").unwrap(), pt);
    }

    #[test]
    fn hkdf_prefix_property(ikm in any::<[u8; 16]>(), len_a in 1usize..64, len_b in 1usize..64) {
        let (short, long) = (len_a.min(len_b), len_a.max(len_b));
        let a = hkdf::derive(b"salt", &ikm, b"info", short);
        let b = hkdf::derive(b"salt", &ikm, b"info", long);
        prop_assert_eq!(&b[..short], &a[..]);
    }

    #[test]
    fn drbg_deterministic(seed in proptest::collection::vec(any::<u8>(), 1..32)) {
        let mut a = HmacDrbg::from_seed(&seed);
        let mut b = HmacDrbg::from_seed(&seed);
        prop_assert_eq!(a.generate_array::<48>(), b.generate_array::<48>());
    }

    #[test]
    fn gcm_round_trip_and_tamper(key in any::<[u8; 16]>(), iv in any::<[u8; 12]>(),
                                 aad in proptest::collection::vec(any::<u8>(), 0..64),
                                 pt in proptest::collection::vec(any::<u8>(), 0..300),
                                 flip in any::<(usize, u8)>()) {
        let gcm = AesGcm::new(&key);
        let (ct, tag) = gcm.seal(&iv, &aad, &pt);
        prop_assert_eq!(ct.len(), pt.len());
        prop_assert_eq!(gcm.open(&iv, &aad, &ct, &tag).unwrap(), pt);
        // Any single-bit flip in the ciphertext must be rejected.
        if !ct.is_empty() && flip.1 != 0 {
            let mut bad = ct.clone();
            bad[flip.0 % ct.len()] ^= flip.1;
            prop_assert!(gcm.open(&iv, &aad, &bad, &tag).is_err());
        }
    }

    #[test]
    fn ghash_is_linear_in_xor(h in any::<[u8; 16]>(),
                              a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        // GHASH of a single block X is X·H, so it is XOR-linear in X —
        // a structural property the GF(2^128) multiplier must satisfy.
        use shef_crypto::ghash::gf128_mul;
        let hu = u128::from_be_bytes(h);
        let au = u128::from_be_bytes(a);
        let bu = u128::from_be_bytes(b);
        prop_assert_eq!(
            gf128_mul(au ^ bu, hu),
            gf128_mul(au, hu) ^ gf128_mul(bu, hu)
        );
    }
}
