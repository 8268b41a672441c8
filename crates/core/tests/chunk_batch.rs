//! Batched chunk crypto against the one-chunk functions, and the
//! slice-dispatching worker pool against one-job-per-call dispatch.
//!
//! `seal_chunks`/`open_chunks` MAC equal-length chunks four per SHA-256
//! pass; their output must be byte-identical to `seal_chunk`/`open_chunk`,
//! and a bad chunk must fail alone. `WorkerPool::try_run` hands each lane
//! a slice of the batch; for every batch size, lane count and injected
//! fault its outcome must be the one a per-job dispatch gives. CI runs
//! these under the release profile too, where the lockstep kernel is
//! vectorised.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use shef_core::shield::chunk::{open_chunk, open_chunks, seal_chunk, seal_chunks};
use shef_core::shield::{TryRunOutcome, WorkerPool};
use shef_core::ShefError;
use shef_crypto::authenc::{AuthEncKey, MacAlgorithm};

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
        // Nine 512 B chunks (two lockstep groups and a leftover), a short
        // tail chunk and mixed epochs, so IVs and ADs differ per chunk.
        let plaintexts: Vec<Vec<u8>> = (0..10)
            .map(|m| payload(m, if m < 9 { 512 } else { 100 }))
            .collect();
        let chunks: Vec<(u32, u64, &[u8])> = plaintexts
            .iter()
            .enumerate()
            .map(|(m, pt)| (40 + m as u32, (m % 3) as u64, pt.as_slice()))
            .collect();
        let sealed = seal_chunks(&key, NONCE, "batch", &chunks);
        for (&(idx, epoch, pt), got) in chunks.iter().zip(&sealed) {
            assert_eq!(
                *got,
                seal_chunk(&key, NONCE, "batch", idx, epoch, pt),
                "{alg}"
            );
        }

        // Tamper with chunk 5, in the middle of the second group.
        let mut tags: Vec<_> = sealed.iter().map(|(_, tag)| *tag).collect();
        tags[5][3] ^= 0x40;
        let to_open: Vec<(u32, u64, &[u8], &[u8; 16])> = chunks
            .iter()
            .zip(&sealed)
            .zip(&tags)
            .map(|((&(idx, epoch, _), (ct, _)), tag)| (idx, epoch, ct.as_slice(), tag))
            .collect();
        let opened = open_chunks(&key, NONCE, "batch", &to_open);
        assert_eq!(opened.len(), chunks.len());
        for (m, (got, &(idx, epoch, ct, tag))) in opened.iter().zip(&to_open).enumerate() {
            let single = open_chunk(&key, NONCE, "batch", idx, epoch, ct, tag);
            match (got, &single) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{alg}, chunk {m}"),
                (Err(ShefError::IntegrityViolation(a)), Err(ShefError::IntegrityViolation(b))) => {
                    assert_eq!(a, b, "{alg}, chunk {m}");
                }
                _ => panic!("{alg}, chunk {m}: batch {got:?} vs single {single:?}"),
            }
            assert_eq!(got.is_err(), m == 5, "{alg}: only the tampered chunk fails");
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
                    let out = pool.try_run(&(0..n as u64).collect(), move |jobs: &[&u64]| {
                        jobs.iter()
                            .map(|&&x| {
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
            let out = pool.try_run(&(0..n as u64).collect(), move |jobs: &[&u64]| {
                seen.fetch_add(1, Ordering::Relaxed);
                jobs.iter().map(|&&x| x).collect()
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
        let first = pool.try_run(&(0..3u64).collect(), |jobs: &[&u64]| {
            jobs.iter().map(|&&x| x).collect::<Vec<_>>()
        });
        assert!(first.failed.is_empty(), "{lanes} lanes");
        let second = pool.try_run(&(0..3u64).collect(), |jobs: &[&u64]| {
            jobs.iter().map(|&&x| x).collect::<Vec<_>>()
        });
        assert_eq!(second.failed, vec![2], "{lanes} lanes");
    }
}
