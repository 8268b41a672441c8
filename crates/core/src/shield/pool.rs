//! Hand-rolled worker pool backing the batched chunk-crypto datapath.
//!
//! The paper's Shield gets its throughput from *replicated* engine sets
//! (§5.2.2, §6): several AES/MAC engine groups seal and open memory
//! chunks concurrently. This module is the execution substrate for that
//! replication in the simulator: a fixed set of worker lanes, each one
//! `std::thread` fed by its own `mpsc` channel (the workspace builds
//! offline, so no rayon/crossbeam), that chunk-crypto batches are fanned
//! across.
//!
//! Determinism contract: [`WorkerPool::try_run`], the pool's one
//! dispatch path, returns results in the exact order of the submitted
//! jobs regardless of which lane finished first. Lane `k` always runs
//! slice `k` of a batch, sized by the round-robin share (`lane_share`)
//! that the modelled cost accounting
//! ([`super::timing::parallel_batch_cost`]) and every telemetry counter
//! also use; the pool reads no real-thread scheduling, so cycle ledgers
//! and engine-set statistics are bit-reproducible run to run.
//!
//! Fault handling has one unit, `attempt`: one job run alone under one
//! `catch_unwind`, after any injected fault armed on its submission
//! index fires. Slices fall back to attempts, and the retry is one more.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;

use shef_telemetry::{Counter, Telemetry};

/// Work handed to one lane: one slice of a batch, run by one closure.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Jobs lane `k` of `lanes` gets out of a batch of `n` under the
/// round-robin model (job `i` goes to lane `i % lanes`).
fn lane_share(n: usize, lanes: usize, k: usize) -> usize {
    n / lanes + usize::from(k < n % lanes)
}

/// Pre-resolved telemetry handles for the pool.
///
/// Everything here is *model-derived* and therefore deterministic: jobs
/// and batches count submissions, the per-lane dispatch counters follow
/// the same round-robin assignment as the timing model
/// ([`super::timing::parallel_batch_cost`]), and panic/retry counters
/// are addressed by submission index.
#[derive(Debug)]
struct PoolTelemetry {
    batches: Counter,
    jobs: Counter,
    lane_panics: Counter,
    recovered_retries: Counter,
    failed_jobs: Counter,
    lane_dispatch: Vec<Counter>,
}

impl PoolTelemetry {
    fn bind(t: &Telemetry, lanes: usize) -> Self {
        PoolTelemetry {
            batches: t.counter("shield.pool.batches"),
            jobs: t.counter("shield.pool.jobs"),
            lane_panics: t.counter("shield.pool.lane_panics"),
            recovered_retries: t.counter("shield.pool.recovered_retries"),
            failed_jobs: t.counter("shield.pool.failed_jobs"),
            lane_dispatch: (0..lanes)
                .map(|k| t.counter(&format!("shield.pool.lane{k}.dispatched")))
                .collect(),
        }
    }

    /// Records one batch of `n` jobs under the round-robin model.
    fn note_batch(&self, n: usize) {
        self.batches.inc();
        self.jobs.add(n as u64);
        let lanes = self.lane_dispatch.len();
        for (k, counter) in self.lane_dispatch.iter().enumerate() {
            counter.add(lane_share(n, lanes, k) as u64);
        }
    }
}

/// Shared state between the pool handle and its worker lanes.
struct PoolShared {
    /// Jobs dispatched through [`WorkerPool::try_run`] since pool
    /// creation — the deterministic submission clock that fault arming
    /// is addressed against.
    submitted: AtomicU64,
    /// Absolute submission index at which the next armed fault fires
    /// (`u64::MAX` = disarmed).
    panic_at: AtomicU64,
    /// Whether the armed fault survives the inline retry (a sticky
    /// "dead lane" rather than a one-shot transient).
    panic_sticky: AtomicBool,
}

impl PoolShared {
    /// Fires an armed injected fault if `submission` is its target.
    /// One-shot faults disarm before panicking so the bounded inline
    /// retry (which replays the same submission index) succeeds;
    /// sticky faults stay armed and kill the retry too.
    fn maybe_injected_panic(&self, submission: u64) {
        if self.panic_at.load(Ordering::Relaxed) == submission {
            if !self.panic_sticky.load(Ordering::Relaxed) {
                self.panic_at.store(u64::MAX, Ordering::Relaxed);
            }
            panic!("injected shield lane fault (job #{submission})");
        }
    }

    /// Arms a fault on the `nth` job submitted from now on.
    fn arm(&self, nth: u64, sticky: bool) {
        self.panic_sticky.store(sticky, Ordering::Relaxed);
        let at = self.submitted.load(Ordering::Relaxed).wrapping_add(nth);
        self.panic_at.store(at, Ordering::Relaxed);
    }
}

/// Outcome of a draining batch dispatch ([`WorkerPool::try_run`]).
#[derive(Debug, PartialEq, Eq)]
pub struct TryRunOutcome<R> {
    /// Per-job results in submission order; `None` where the job
    /// panicked on both its lane attempt and the inline retry.
    pub results: Vec<Option<R>>,
    /// Submission-order indices of jobs with no result, ascending.
    pub failed: Vec<usize>,
    /// Total panics observed across first attempts and retries.
    pub lane_panics: u64,
    /// Panicked jobs that succeeded on the bounded inline retry.
    pub recovered: u64,
}

/// A fixed-size pool of crypto worker lanes.
///
/// One lane models one replicated engine group. A pool with a single
/// lane executes jobs inline on the caller thread (a serial engine set
/// has no fan-out hardware), so `WorkerPool::new(1)` is the serial
/// datapath at no threading cost.
pub struct WorkerPool {
    lanes: usize,
    /// Lane `k`'s job channel and thread; empty for a one-lane pool.
    workers: Vec<(mpsc::Sender<Job>, thread::JoinHandle<()>)>,
    shared: Arc<PoolShared>,
    tele: OnceLock<PoolTelemetry>,
}

impl core::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool with `lanes` worker lanes (clamped to at least 1).
    /// A one-lane pool spawns no threads and runs jobs inline.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let workers = if lanes == 1 {
            Vec::new()
        } else {
            (0..lanes)
                .map(|k| {
                    let (tx, rx) = mpsc::channel::<Job>();
                    let lane = thread::Builder::new()
                        .name(format!("shef-shield-lane{k}"))
                        .spawn(move || rx.into_iter().for_each(|job| job()))
                        .expect("spawn shield worker lane");
                    (tx, lane)
                })
                .collect()
        };
        WorkerPool {
            lanes,
            workers,
            shared: Arc::new(PoolShared {
                submitted: AtomicU64::new(0),
                panic_at: AtomicU64::new(u64::MAX),
                panic_sticky: AtomicBool::new(false),
            }),
            tele: OnceLock::new(),
        }
    }

    /// Mirrors the pool's deterministic dispatch counters into
    /// `telemetry`: `shield.pool.{batches,jobs,lane_panics,
    /// recovered_retries,failed_jobs}` plus one
    /// `shield.pool.lane{k}.dispatched` counter per lane under the
    /// round-robin model dispatch. Attach-once: later calls are ignored,
    /// matching the pool's fixed-lanes lifecycle.
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        let _ = self.tele.set(PoolTelemetry::bind(telemetry, self.lanes));
    }

    /// Number of worker lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs `f` over `items`, fanned across the pool's lanes, and
    /// returns the results **in submission order**. This is the pool's
    /// one dispatch path. It never unwinds into the caller: every job is
    /// drained, each panicked job gets exactly one inline retry on the
    /// caller thread, and jobs that fail the retry too are reported as
    /// empty slots in the outcome instead of re-raising. A dying lane
    /// therefore never abandons sibling jobs (victim seals in particular
    /// exist only in the staged batch).
    ///
    /// Lane `k` runs slice `k` of the batch, one contiguous run of as
    /// many jobs as the round-robin model dispatches to it; at one lane
    /// the slice is the whole batch, run inline. `f` returns one result
    /// per job it is given. A slice is one call of `f` unless a fault is
    /// armed on one of its submission indices or that call panics; then
    /// each of its jobs is one attempt of its own, so a panic is pinned
    /// on the job that raised it. The retry is one more attempt of the
    /// same job. Every outcome therefore equals one-job-per-call
    /// dispatch.
    pub fn try_run<T, R, F>(&self, items: &Arc<[T]>, f: F) -> TryRunOutcome<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&[T]) -> Vec<R> + Send + Sync + 'static,
    {
        let n = items.len();
        if let Some(tele) = self.tele.get() {
            tele.note_batch(n);
        }
        let mut outcome = TryRunOutcome {
            results: Vec::new(),
            failed: Vec::new(),
            lane_panics: 0,
            recovered: 0,
        };
        if n == 0 {
            // An all-hit batch: counted above, nothing to run.
            return outcome;
        }
        let first = self.shared.submitted.fetch_add(n as u64, Ordering::Relaxed);
        // The lanes share `f` through an `Arc`; the inline path borrows
        // it and allocates nothing.
        let lane_f;
        let f: &F = if self.workers.is_empty() || n == 1 {
            outcome.results = run_slice(&self.shared, items, first, &f);
            &f
        } else {
            lane_f = Arc::new(f);
            outcome.results = self.fan_out(items, first, &lane_f);
            &lane_f
        };
        // The bounded retry: each panicked job once more, alone and
        // inline on the caller thread.
        for (i, slot) in outcome.results.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            outcome.lane_panics += 1;
            *slot = attempt(&self.shared, f, &items[i], first + i as u64);
            if slot.is_some() {
                outcome.recovered += 1;
            } else {
                outcome.lane_panics += 1;
                outcome.failed.push(i);
            }
        }
        if let Some(tele) = self.tele.get() {
            tele.lane_panics.add(outcome.lane_panics);
            tele.recovered_retries.add(outcome.recovered);
            tele.failed_jobs.add(outcome.failed.len() as u64);
        }
        outcome
    }

    /// Sends slice `k` of `items` to lane `k` and gathers the slots in
    /// submission order.
    fn fan_out<T, R, F>(&self, items: &Arc<[T]>, first: u64, f: &Arc<F>) -> Vec<Option<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&[T]) -> Vec<R> + Send + Sync + 'static,
    {
        let n = items.len();
        let (done_tx, done_rx) = mpsc::channel();
        let mut start = 0;
        for (k, (lane, _)) in self.workers.iter().enumerate() {
            let range = start..start + lane_share(n, self.lanes, k);
            start = range.end;
            if range.is_empty() {
                continue;
            }
            let (items, f, shared) = (Arc::clone(items), Arc::clone(f), Arc::clone(&self.shared));
            let done_tx = done_tx.clone();
            let job: Job = Box::new(move || {
                let at = first + range.start as u64;
                let slots = run_slice(&shared, &items[range.clone()], at, &*f);
                let _ = done_tx.send((range.start, slots));
            });
            lane.send(job).expect("pool lanes alive while handle held");
        }
        drop(done_tx);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // Ends once every slice has reported and dropped its sender.
        for (start, slots) in done_rx {
            for (slot, result) in results[start..].iter_mut().zip(slots) {
                *slot = result;
            }
        }
        results
    }

    /// Arms a one-shot injected lane fault: the `nth` job (0-based)
    /// dispatched through [`WorkerPool::try_run`] from now on panics on
    /// its first attempt; the bounded inline retry then succeeds. Test
    /// hook for transient-fault campaigns.
    pub fn arm_lane_panic(&self, nth: u64) {
        self.shared.arm(nth, false);
    }

    /// Arms a sticky injected lane fault: like
    /// [`WorkerPool::arm_lane_panic`] but the retry panics too,
    /// modelling a persistently dead lane for that job.
    pub fn arm_lane_panic_sticky(&self, nth: u64) {
        self.shared.arm(nth, true);
    }

    /// Disarms any armed injected lane fault.
    pub fn disarm_lane_panic(&self) {
        self.shared.panic_at.store(u64::MAX, Ordering::Relaxed);
    }
}

/// One slice of a [`WorkerPool::try_run`] batch, whose first job has
/// submission index `first`: `None` marks a job that panicked. The slice
/// is one call of `f` when no fault is armed inside it and that call
/// returns; otherwise every job is an [`attempt`].
fn run_slice<T, R>(
    shared: &PoolShared,
    jobs: &[T],
    first: u64,
    f: &(impl Fn(&[T]) -> Vec<R> + ?Sized),
) -> Vec<Option<R>> {
    let armed = shared.panic_at.load(Ordering::Relaxed).checked_sub(first);
    if armed.is_none_or(|k| k >= jobs.len() as u64) {
        if let Ok(results) = catch_unwind(AssertUnwindSafe(|| call(f, jobs))) {
            return results.into_iter().map(Some).collect();
        }
    }
    jobs.iter()
        .zip(first..)
        .map(|(job, submission)| attempt(shared, f, job, submission))
        .collect()
}

/// `f` over the single job `job`, submitted as `submission`: fires the
/// fault armed on `submission`, if any, then runs the job alone. `None`
/// if either panicked.
fn attempt<T, R>(
    shared: &PoolShared,
    f: &(impl Fn(&[T]) -> Vec<R> + ?Sized),
    job: &T,
    submission: u64,
) -> Option<R> {
    catch_unwind(AssertUnwindSafe(|| {
        shared.maybe_injected_panic(submission);
        call(f, std::slice::from_ref(job)).pop()
    }))
    .ok()
    .flatten()
}

/// `f` over `jobs`, checked to return one result per job.
fn call<T, R>(f: &(impl Fn(&[T]) -> Vec<R> + ?Sized), jobs: &[T]) -> Vec<R> {
    let results = f(jobs);
    assert_eq!(results.len(), jobs.len(), "one result per job");
    results
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing a lane's channel ends its loop.
        for (tx, lane) in self.workers.drain(..) {
            drop(tx);
            let _ = lane.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `try_run` job function that applies `g` to each job.
    fn each<R>(g: impl Fn(u64) -> R + Send + Sync) -> impl Fn(&[u64]) -> Vec<R> + Send + Sync {
        move |jobs| jobs.iter().map(|&x| g(x)).collect()
    }

    /// The results of a batch that must run clean: no panic, no retry.
    fn clean<R>(out: TryRunOutcome<R>) -> Vec<R> {
        assert_eq!(out.failed, Vec::<usize>::new());
        assert_eq!((out.lane_panics, out.recovered), (0, 0));
        out.results.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn results_are_in_submission_order() {
        let pool = WorkerPool::new(4);
        let out = clean(pool.try_run(
            &(0..257u64).collect(),
            each(|x| {
                // Stagger lane timing so completion order scrambles.
                if x % 7 == 0 {
                    thread::sleep(std::time::Duration::from_micros(50));
                }
                x * 3 + 1
            }),
        ));
        assert_eq!(out, (0..257u64).map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn single_lane_runs_inline() {
        let pool = WorkerPool::new(1);
        let tid = thread::current().id();
        let out = clean(pool.try_run(
            &(0..8u64).collect(),
            each(move |x| {
                assert_eq!(thread::current().id(), tid, "lane 1 must execute inline");
                x
            }),
        ));
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn slice_k_runs_on_lane_k() {
        // Lane `k` of the round-robin model gets slice `k`, contiguous.
        for (lanes, expected) in [
            (2, vec![0, 0, 0, 1, 1]),
            (3, vec![0, 0, 0, 1, 1, 1, 2, 2]),
            (4, vec![0, 0, 1, 1, 2, 3]),
        ] {
            let pool = WorkerPool::new(lanes);
            let names = clean(pool.try_run(
                &(0..expected.len() as u64).collect(),
                each(|_| thread::current().name().map(str::to_owned)),
            ));
            let expected: Vec<_> = expected
                .iter()
                .map(|k| Some(format!("shef-shield-lane{k}")))
                .collect();
            assert_eq!(names, expected, "{lanes} lanes");
        }
    }

    #[test]
    fn zero_lanes_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.lanes(), 1);
        assert_eq!(
            clean(pool.try_run(&[5u64].into(), each(|x| x + 1))),
            vec![6]
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::new(4);
        let out = clean(pool.try_run(&Arc::from(Vec::<u64>::new()), each(|x| x)));
        assert!(out.is_empty());
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let out = clean(pool.try_run(&(0..17u64).collect(), each(move |x| x + round)));
            assert_eq!(out, (round..17 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clean_batch_needs_no_retry() {
        let pool = WorkerPool::new(4);
        let out = clean(pool.try_run(&(0..64u64).collect(), each(|x| x * 2)));
        assert_eq!(out, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
    }
    #[test]
    fn one_shot_armed_panic_recovers_on_retry() {
        for lanes in [1usize, 4] {
            let pool = WorkerPool::new(lanes);
            pool.arm_lane_panic(3);
            let out = pool.try_run(&(0..8u64).collect(), each(|x| x + 1));
            assert_eq!(out.failed, Vec::<usize>::new(), "{lanes} lanes");
            assert_eq!(out.lane_panics, 1, "{lanes} lanes");
            assert_eq!(out.recovered, 1, "{lanes} lanes");
            assert!(out.results.iter().all(Option::is_some));
            // The pool is clean afterwards: no armed fault left behind.
            let again = pool.try_run(&(0..8u64).collect(), each(|x| x + 1));
            assert_eq!(again.lane_panics, 0, "{lanes} lanes");
        }
    }

    #[test]
    fn sticky_armed_panic_drains_siblings_and_reports_the_slot() {
        for lanes in [1usize, 4] {
            let pool = WorkerPool::new(lanes);
            pool.arm_lane_panic_sticky(2);
            let out = pool.try_run(&(0..8u64).collect(), each(|x| x + 1));
            assert_eq!(out.failed, vec![2], "{lanes} lanes");
            assert_eq!(out.lane_panics, 2, "attempt + retry, {lanes} lanes");
            assert_eq!(out.recovered, 0, "{lanes} lanes");
            for (i, slot) in out.results.iter().enumerate() {
                if i == 2 {
                    assert!(slot.is_none());
                } else {
                    assert_eq!(*slot, Some(i as u64 + 1), "sibling jobs drained");
                }
            }
            pool.disarm_lane_panic();
            let again = pool.try_run(&(0..8u64).collect(), each(|x| x + 1));
            assert_eq!(again.lane_panics, 0, "{lanes} lanes");
        }
    }

    #[test]
    fn real_panic_in_try_run_never_unwinds_into_caller() {
        let pool = WorkerPool::new(2);
        let out = pool.try_run(
            &(0..8u64).collect(),
            each(|x| {
                assert!(x != 5, "boom");
                x
            }),
        );
        // A genuine (non-injected) panic repeats on retry: same input,
        // same deterministic crash.
        assert_eq!(out.failed, vec![5]);
        assert_eq!(out.lane_panics, 2);
        assert_eq!(out.results[5], None);
        assert_eq!(out.results[4], Some(4));
        // The pool and its lanes survive for the next batch.
        let again = clean(pool.try_run(&vec![1u64, 2].into(), each(|x| x * 10)));
        assert_eq!(again, vec![10, 20]);
    }

    #[test]
    fn telemetry_counts_model_dispatch_deterministically() {
        let t = Telemetry::new();
        let pool = WorkerPool::new(4);
        pool.attach_telemetry(&t);
        let _ = pool.try_run(&(0..10u64).collect(), each(|x| x));
        pool.arm_lane_panic_sticky(2);
        let _ = pool.try_run(&(0..3u64).collect(), each(|x| x));
        let r = t.report();
        assert_eq!(r.counters["shield.pool.batches"], 2);
        assert_eq!(r.counters["shield.pool.jobs"], 13);
        // Round-robin model dispatch: 10 jobs then 3 jobs over 4 lanes.
        assert_eq!(r.counters["shield.pool.lane0.dispatched"], 3 + 1);
        assert_eq!(r.counters["shield.pool.lane1.dispatched"], 3 + 1);
        assert_eq!(r.counters["shield.pool.lane2.dispatched"], 2 + 1);
        assert_eq!(r.counters["shield.pool.lane3.dispatched"], 2);
        assert_eq!(r.counters["shield.pool.lane_panics"], 2);
        assert_eq!(r.counters["shield.pool.recovered_retries"], 0);
        assert_eq!(r.counters["shield.pool.failed_jobs"], 1);
    }
}
