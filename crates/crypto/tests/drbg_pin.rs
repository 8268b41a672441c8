//! Pins the HMAC-DRBG output stream byte for byte.
//!
//! Every seeded input, key and nonce in the workspace comes from
//! `HmacDrbg`, and the golden models draw from the same stream as the
//! shielded runs, so a drift in the stream would pass every round-trip
//! and equivalence test while silently changing every workload's data.
//! The values below were recorded from the generator before its HMAC
//! pads were cached; `generate_array`, `fill_bytes` at lengths around
//! the 32-byte HMAC block, `reseed` and `next_u64` must keep them.

use shef_crypto::drbg::HmacDrbg;
use shef_crypto::sha2::Sha256;
use shef_crypto::to_hex;

/// The stream of one seed: the first 32 bytes, then fills of 0, 1, 31,
/// 32, 33, 100 and 4096 bytes, a reseed, a `u64` and 48 more bytes.
fn transcript(seed: &[u8]) -> ([u8; 32], Vec<u8>) {
    let mut rng = HmacDrbg::from_seed(seed);
    let first = rng.generate_array::<32>();
    let mut out = first.to_vec();
    for len in [0usize, 1, 31, 32, 33, 100, 4096] {
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        out.extend_from_slice(&buf);
    }
    rng.reseed(b"extra entropy");
    out.extend_from_slice(&rng.next_u64().to_le_bytes());
    out.extend_from_slice(&rng.generate_array::<48>());
    (first, out)
}

#[test]
fn drbg_stream_is_pinned_for_several_seeds() {
    let long_seed = [0xa5u8; 100];
    let pins: [(&[u8], &str, &str); 4] = [
        (
            b"",
            "c3bf6a81dda5b85c626a582fdaf855cb7085ee308c8976954544afe814cca1a3",
            "b0f8efe33ea27a88730b87a3a17ccabc9217f12d5cbf11d7955f9fc2efafbe91",
        ),
        (
            b"seed",
            "945418b8333283ae441104ff0af8ab77c755914dbcd4971f9db434098d72cc5f",
            "12bce34403e69da11ac4676eabee8220345700efa41f1c0ef379232fc4276a22",
        ),
        (
            b"perfbench-affine",
            "ce1e055d957ad028822918b3e50673d4ef9801d7aaec2b16eeb7e1b161c0439a",
            "1dc19aa95be410793bb35bf100fc999d70eae082092387831049b49c8d37c756",
        ),
        (
            &long_seed,
            "f3b61140afb083ce6ed5ac59a4c15593d368c171dd4c0df5f5aba8bb06167cbb",
            "5e0d58e9703b195b41f0483b588c82b9d832d4c52ec820d582dbd83867045437",
        ),
    ];
    for (seed, first_hex, transcript_sha256) in pins {
        let (first, stream) = transcript(seed);
        assert_eq!(stream.len(), 4381);
        assert_eq!(to_hex(&first), first_hex, "seed {seed:02x?}");
        assert_eq!(
            to_hex(&Sha256::digest(&stream)),
            transcript_sha256,
            "seed {seed:02x?}"
        );
    }
}
