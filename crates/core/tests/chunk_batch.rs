//! Batched in-place chunk crypto against the one-message reference, and
//! the slice-dispatching worker pool against one-job-per-call dispatch.
//!
//! `ChunkCipher::{seal,open}` build a batch's associated data in one
//! buffer and MAC equal-length chunks four per SHA-256 pass; every
//! ciphertext and tag must be byte-identical to `AuthEncKey`'s
//! one-message seal under `chunk_ad`/`chunk_iv`, and a bad chunk must
//! fail alone and keep its ciphertext. `WorkerPool::try_run` hands each
//! lane a slice of the batch; for every batch size, lane count and
//! injected fault its outcome must be the one a per-job dispatch gives.
//! CI runs these under the release profile too, where the lockstep
//! kernel is vectorised.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use shef_core::shield::chunk::{chunk_ad, chunk_iv, ChunkCipher, CHUNK_TAG_LEN};
use shef_core::shield::{TryRunOutcome, WorkerPool};
use shef_crypto::authenc::{AuthEncKey, MacAlgorithm};
use shef_crypto::CryptoError;

const NONCE: [u8; 8] = [9; 8];

fn payload(m: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + m * 29) as u8).collect()
}

#[test]
fn batched_chunks_are_byte_identical_to_single_chunks() {
    for alg in [
        MacAlgorithm::HmacSha256,
        MacAlgorithm::PmacAes,
        MacAlgorithm::AesGcm,
    ] {
        let key = AuthEncKey::from_bytes([3; 32], alg);
        let cipher = ChunkCipher::new(key.clone(), NONCE, "batch");
        // Groups of one to nine chunks (no, one and two lockstep groups);
        // the ninth chunk is a short tail, and epochs differ per chunk, so
        // IVs and ADs do too. HMAC, whose lockstep grouping depends on
        // the length, runs every length through 600 B; PMAC and GCM run
        // the lengths around their 16-byte blocks.
        let lens: Vec<usize> = match alg {
            MacAlgorithm::HmacSha256 => (0..=600).collect(),
            _ => vec![
                0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 511, 512, 513, 600,
            ],
        };
        let id = |m: usize| (40 + m as u32, (m % 3) as u64);
        for len in lens {
            let all: Vec<Vec<u8>> = (0..9)
                .map(|m| payload(m + len, if m == 8 { len / 3 } else { len }))
                .collect();
            let reference: Vec<_> = all
                .iter()
                .enumerate()
                .map(|(m, pt)| {
                    let (idx, epoch) = id(m);
                    key.seal_with_iv(
                        pt,
                        &chunk_ad("batch", idx, epoch),
                        chunk_iv(NONCE, idx, epoch),
                    )
                })
                .collect();
            for group in 1..=9 {
                let plaintexts = &all[..group];
                let mut bufs = plaintexts.to_vec();
                let mut tags = vec![[0u8; CHUNK_TAG_LEN]; group];
                cipher.seal(
                    bufs.iter_mut()
                        .zip(&mut tags)
                        .enumerate()
                        .map(|(m, (buf, tag))| (id(m).0, id(m).1, buf.as_mut_slice(), tag)),
                );
                for m in 0..group {
                    assert_eq!(
                        bufs[m], reference[m].ciphertext,
                        "{alg}, {group} x {len} B, #{m}"
                    );
                    assert_eq!(tags[m], reference[m].tag, "{alg}, {group} x {len} B, #{m}");
                }

                // Tamper with the middle chunk: it alone fails and keeps
                // its ciphertext.
                let bad = group / 2;
                tags[bad][3] ^= 0x40;
                let ciphertexts = bufs.clone();
                let verdicts = cipher.open(
                    bufs.iter_mut()
                        .zip(&tags)
                        .enumerate()
                        .map(|(m, (buf, tag))| (id(m).0, id(m).1, buf.as_mut_slice(), tag)),
                );
                assert_eq!(verdicts.len(), group);
                for m in 0..group {
                    if m == bad {
                        assert_eq!(verdicts[m], Err(CryptoError::TagMismatch), "{alg}");
                        assert_eq!(
                            bufs[m], ciphertexts[m],
                            "{alg}: failed chunk keeps ciphertext"
                        );
                    } else {
                        assert_eq!(verdicts[m], Ok(()), "{alg}, {group} x {len} B, #{m}");
                        assert_eq!(bufs[m], plaintexts[m], "{alg}, {group} x {len} B, #{m}");
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    OneShot,
    Sticky,
    /// The job function itself panics on this job, every time.
    Genuine,
}

/// What one-job-per-call dispatch gives for jobs `0..n` mapped through
/// `x * 3 + 1`, with `fault` at job `at`.
fn per_job_reference(n: usize, at: usize, fault: Fault) -> TryRunOutcome<u64> {
    let mut results: Vec<Option<u64>> = (0..n as u64).map(|x| Some(x * 3 + 1)).collect();
    let (failed, lane_panics, recovered) = match fault {
        Fault::OneShot => (vec![], 1, 1),
        Fault::Sticky | Fault::Genuine => {
            results[at] = None;
            (vec![at], 2, 0)
        }
    };
    TryRunOutcome {
        results,
        failed,
        lane_panics,
        recovered,
    }
}

#[test]
fn sliced_dispatch_matches_per_job_dispatch_under_every_fault() {
    for lanes in 1..=3 {
        let pool = WorkerPool::new(lanes);
        for n in 1..=9 {
            for at in 0..n {
                for fault in [Fault::OneShot, Fault::Sticky, Fault::Genuine] {
                    match fault {
                        Fault::OneShot => pool.arm_lane_panic(at as u64),
                        Fault::Sticky => pool.arm_lane_panic_sticky(at as u64),
                        Fault::Genuine => pool.disarm_lane_panic(),
                    }
                    let bad = matches!(fault, Fault::Genuine).then_some(at as u64);
                    let out = pool.try_run(&(0..n as u64).collect(), move |jobs: &[u64]| {
                        jobs.iter()
                            .map(|&x| {
                                assert!(Some(x) != bad, "genuine fault");
                                x * 3 + 1
                            })
                            .collect()
                    });
                    assert_eq!(
                        out,
                        per_job_reference(n, at, fault),
                        "{lanes} lanes, {n} jobs, {fault:?} at {at}"
                    );
                    pool.disarm_lane_panic();
                }
            }
        }
    }
}

#[test]
fn each_lane_gets_one_slice() {
    for lanes in 1..=3 {
        let pool = WorkerPool::new(lanes);
        for n in 1..=9usize {
            let calls = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&calls);
            let out = pool.try_run(&(0..n as u64).collect(), move |jobs: &[u64]| {
                seen.fetch_add(1, Ordering::Relaxed);
                jobs.to_vec()
            });
            assert!(out.failed.is_empty());
            let expected_calls = if lanes == 1 { 1 } else { n.min(lanes) };
            assert_eq!(
                calls.load(Ordering::Relaxed),
                expected_calls,
                "{lanes} lanes, {n} jobs"
            );
        }
    }
}

#[test]
fn armed_faults_count_submissions_across_sliced_batches() {
    // The fault clock counts jobs, not slices: arming job 5 from now on
    // hits the third job of the second 3-job batch.
    for lanes in 1..=3 {
        let pool = WorkerPool::new(lanes);
        pool.arm_lane_panic_sticky(5);
        let first = pool.try_run(&(0..3u64).collect(), |jobs: &[u64]| jobs.to_vec());
        assert!(first.failed.is_empty(), "{lanes} lanes");
        let second = pool.try_run(&(0..3u64).collect(), |jobs: &[u64]| jobs.to_vec());
        assert_eq!(second.failed, vec![2], "{lanes} lanes");
    }
}
