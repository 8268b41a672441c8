//! Known-answer tests pinning the from-scratch crypto stack to the
//! published standards: AES-GCM (NIST SP 800-38D / McGrew–Viega test
//! vectors), HMAC-SHA-256 (RFC 4231), HKDF-SHA-256 (RFC 5869),
//! Ed25519 (RFC 8032 §7.1) and X25519 (RFC 7748 §5.2). These complement the round-trip and
//! property tests: a self-consistent but non-standard implementation
//! passes those and fails here.

use shef_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use shef_crypto::gcm::AesGcm;
use shef_crypto::sha2::Sha512;
use shef_crypto::x25519;
use shef_crypto::{from_hex, to_hex};

fn h(s: &str) -> Vec<u8> {
    from_hex(s).expect("valid hex in test vector")
}

fn arr<const N: usize>(s: &str) -> [u8; N] {
    h(s).try_into().expect("vector length matches")
}

// ---------------------------------------------------------------------
// AES-GCM — McGrew & Viega "The Galois/Counter Mode of Operation",
// appendix B (the same vectors NIST SP 800-38D validation uses).
// ---------------------------------------------------------------------

#[test]
fn aes128_gcm_test_case_1_empty() {
    let gcm = AesGcm::new(&[0u8; 16]);
    let (ct, tag) = gcm.seal(&[0u8; 12], &[], &[]);
    assert!(ct.is_empty());
    assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    assert_eq!(
        gcm.open(&[0u8; 12], &[], &[], &tag).unwrap(),
        Vec::<u8>::new()
    );
}

#[test]
fn aes128_gcm_test_case_2_single_block() {
    let gcm = AesGcm::new(&[0u8; 16]);
    let (ct, tag) = gcm.seal(&[0u8; 12], &[], &[0u8; 16]);
    assert_eq!(to_hex(&ct), "0388dace60b6a392f328c2b971b2fe78");
    assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
}

#[test]
fn aes128_gcm_test_case_3_four_blocks() {
    let gcm = AesGcm::new(&h("feffe9928665731c6d6a8f9467308308"));
    let iv: [u8; 12] = arr("cafebabefacedbaddecaf888");
    let pt = h(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
    );
    let (ct, tag) = gcm.seal(&iv, &[], &pt);
    assert_eq!(
        to_hex(&ct),
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    );
    assert_eq!(to_hex(&tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
}

#[test]
fn aes128_gcm_test_case_4_with_aad() {
    let gcm = AesGcm::new(&h("feffe9928665731c6d6a8f9467308308"));
    let iv: [u8; 12] = arr("cafebabefacedbaddecaf888");
    let aad = h("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let pt = h(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
    );
    let (ct, tag) = gcm.seal(&iv, &aad, &pt);
    assert_eq!(
        to_hex(&ct),
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    );
    assert_eq!(to_hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    assert_eq!(gcm.open(&iv, &aad, &ct, &tag).unwrap(), pt);
    // A flipped AAD bit must fail authentication.
    let mut bad_aad = aad.clone();
    bad_aad[0] ^= 1;
    assert!(gcm.open(&iv, &bad_aad, &ct, &tag).is_err());
}

#[test]
fn aes256_gcm_test_cases_13_and_14() {
    let gcm = AesGcm::new(&[0u8; 32]);
    let (_, tag) = gcm.seal(&[0u8; 12], &[], &[]);
    assert_eq!(to_hex(&tag), "530f8afbc74536b9a963b4f1c4cb738b");
    let (ct, tag) = gcm.seal(&[0u8; 12], &[], &[0u8; 16]);
    assert_eq!(to_hex(&ct), "cea7403d4d606b6e074ec5d3baf39d18");
    assert_eq!(to_hex(&tag), "d0d1c8a799996bf0265b98b5d48ab919");
}

// ---------------------------------------------------------------------
// HMAC-SHA-256 — RFC 4231
// ---------------------------------------------------------------------

#[test]
fn hmac_sha256_rfc4231_case_1() {
    let tag = shef_crypto::hmac::hmac_sha256(&[0x0bu8; 20], b"Hi There");
    assert_eq!(
        to_hex(&tag),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_2() {
    let tag = shef_crypto::hmac::hmac_sha256(b"Jefe", b"what do ya want for nothing?");
    assert_eq!(
        to_hex(&tag),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_3_long_data() {
    let tag = shef_crypto::hmac::hmac_sha256(&[0xaau8; 20], &[0xddu8; 50]);
    assert_eq!(
        to_hex(&tag),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_6_oversized_key() {
    // A 131-byte key exercises the hash-the-key-first path.
    let tag = shef_crypto::hmac::hmac_sha256(
        &[0xaau8; 131],
        b"Test Using Larger Than Block-Size Key - Hash Key First",
    );
    assert_eq!(
        to_hex(&tag),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    );
}

// ---------------------------------------------------------------------
// HKDF-SHA-256 — RFC 5869
// ---------------------------------------------------------------------

#[test]
fn hkdf_rfc5869_test_case_1() {
    let ikm = [0x0bu8; 22];
    let salt = h("000102030405060708090a0b0c");
    let info = h("f0f1f2f3f4f5f6f7f8f9");
    let prk = shef_crypto::hkdf::extract(&salt, &ikm);
    assert_eq!(
        to_hex(&prk),
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    );
    let okm = shef_crypto::hkdf::expand(&prk, &info, 42);
    assert_eq!(
        to_hex(&okm),
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
         34007208d5b887185865"
    );
    assert_eq!(shef_crypto::hkdf::derive(&salt, &ikm, &info, 42), okm);
}

#[test]
fn hkdf_rfc5869_test_case_3_empty_salt_and_info() {
    let ikm = [0x0bu8; 22];
    let prk = shef_crypto::hkdf::extract(&[], &ikm);
    let okm = shef_crypto::hkdf::expand(&prk, &[], 42);
    assert_eq!(
        to_hex(&okm),
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
         9d201395faa4b61a96c8"
    );
}

// ---------------------------------------------------------------------
// Ed25519 — RFC 8032 §7.1
// ---------------------------------------------------------------------

#[test]
fn ed25519_rfc8032_test_1_empty_message() {
    let seed: [u8; 32] = arr("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
    let sk = SigningKey::from_seed(&seed);
    let vk = sk.verifying_key();
    assert_eq!(
        to_hex(&vk.0),
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    );
    let sig = sk.sign(&[]);
    assert_eq!(
        to_hex(&sig.0),
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
         5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    );
    vk.verify(&[], &sig).expect("RFC 8032 signature verifies");
}

#[test]
fn ed25519_rfc8032_test_2_one_byte_message() {
    let seed: [u8; 32] = arr("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
    let sk = SigningKey::from_seed(&seed);
    let vk = sk.verifying_key();
    assert_eq!(
        to_hex(&vk.0),
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
    );
    let msg = [0x72u8];
    let sig = sk.sign(&msg);
    assert_eq!(
        to_hex(&sig.0),
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
         085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
    );
    vk.verify(&msg, &sig).expect("RFC 8032 signature verifies");
    // The signature must not verify for a different message or key.
    assert!(vk.verify(&[0x73], &sig).is_err());
    let other = VerifyingKey(arr(
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
    ));
    assert!(other.verify(&msg, &sig).is_err());
    // And a corrupted signature must be rejected, not misparsed.
    let mut bad = sig.0;
    bad[0] ^= 1;
    let bad_sig = Signature(bad);
    assert!(vk.verify(&msg, &bad_sig).is_err());
}

#[test]
fn ed25519_rfc8032_test_sha_abc() {
    let seed: [u8; 32] = arr("833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42");
    let sk = SigningKey::from_seed(&seed);
    let vk = sk.verifying_key();
    assert_eq!(
        to_hex(&vk.0),
        "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf"
    );
    // The message is SHA-512("abc").
    let msg = Sha512::digest(b"abc");
    assert_eq!(
        to_hex(&msg),
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
         2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    );
    let sig = sk.sign(&msg);
    assert_eq!(
        to_hex(&sig.0),
        "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
         09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"
    );
    vk.verify(&msg, &sig).expect("RFC 8032 signature verifies");
}

#[test]
fn ed25519_rfc8032_test_1024() {
    let seed: [u8; 32] = arr("f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5");
    let sk = SigningKey::from_seed(&seed);
    let vk = sk.verifying_key();
    assert_eq!(
        to_hex(&vk.0),
        "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e"
    );
    let msg = h(concat!(
        "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98",
        "fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8",
        "79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d",
        "658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc",
        "1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe",
        "ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e",
        "06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef",
        "efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7",
        "aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1",
        "85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2",
        "d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24",
        "554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270",
        "88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc",
        "2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07",
        "07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba",
        "b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a",
        "ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e",
        "c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7",
        "51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c",
        "42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8",
        "ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df",
        "f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08",
        "d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649",
        "de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4",
        "88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3",
        "2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e",
        "6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f",
        "b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5",
        "0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1",
        "369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d",
        "b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c",
        "0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0",
    ));
    assert_eq!(msg.len(), 1023);
    let sig = sk.sign(&msg);
    assert_eq!(
        to_hex(&sig.0),
        "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
         aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03"
    );
    vk.verify(&msg, &sig).expect("RFC 8032 signature verifies");
}

// ---------------------------------------------------------------------
// X25519 — RFC 7748 §5.2
// ---------------------------------------------------------------------

#[test]
fn x25519_rfc7748_iterated_1000() {
    let mut k = x25519::BASEPOINT_U;
    let mut u = x25519::BASEPOINT_U;
    for i in 1..=1000 {
        let next = x25519::scalar_mult(&k, &u);
        u = k;
        k = next;
        if i == 1 {
            assert_eq!(
                to_hex(&k),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
            );
        }
    }
    assert_eq!(
        to_hex(&k),
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
    );
}
