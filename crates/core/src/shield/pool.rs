//! Hand-rolled worker pool backing the batched chunk-crypto datapath.
//!
//! The paper's Shield gets its throughput from *replicated* engine sets
//! (§5.2.2, §6): several AES/MAC engine groups seal and open memory
//! chunks concurrently. This module is the execution substrate for that
//! replication in the simulator: a fixed set of worker lanes
//! (`std::thread` + `mpsc` channels — the workspace builds offline, so
//! no rayon/crossbeam) that chunk-crypto batches are fanned across.
//!
//! Determinism contract: [`WorkerPool::run`] returns results in the
//! exact order of the submitted jobs regardless of which lane executed
//! what or in which order lanes finished. All *modelled* cost accounting
//! (see [`super::timing::parallel_batch_cost`]) is computed from a
//! deterministic round-robin lane assignment, never from real-thread
//! scheduling, so cycle ledgers and engine-set statistics are
//! bit-reproducible run to run. Only the observability counters in
//! [`PoolStats`] reflect real scheduling.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::thread;

use shef_telemetry::{Counter, Telemetry};

/// Work handed to one lane: `jobs` pool jobs run by one closure.
struct Job {
    jobs: usize,
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// Pre-resolved telemetry handles for the pool.
///
/// Everything here is *model-derived* and therefore deterministic: jobs
/// and batches count submissions, the per-lane dispatch counters follow
/// the same round-robin assignment as the timing model
/// ([`super::timing::parallel_batch_cost`]), and panic/retry counters
/// are addressed by submission index. Real-scheduling quantities
/// (`jobs_per_lane`, `queue_high_water`) stay in [`PoolStats`] and are
/// deliberately NOT mirrored — they would break the byte-identical
/// report guarantee.
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

    /// Records one batch of `n` jobs under the deterministic
    /// round-robin dispatch model (job `i` goes to lane `i % lanes`).
    fn note_batch(&self, n: usize) {
        self.batches.inc();
        self.jobs.add(n as u64);
        let lanes = self.lane_dispatch.len();
        for (k, counter) in self.lane_dispatch.iter().enumerate() {
            let share = n / lanes + usize::from(k < n % lanes);
            counter.add(share as u64);
        }
    }
}

/// Shared state between the pool handle and its worker lanes.
struct PoolShared {
    /// Jobs submitted but not yet picked up by a lane.
    queued: AtomicUsize,
    /// High-water mark of `queued` (real scheduling; observability only).
    queue_high_water: AtomicUsize,
    /// Jobs executed per lane (real scheduling; observability only).
    jobs_per_lane: Vec<AtomicU64>,
    /// Batches dispatched through [`WorkerPool::run`].
    batches: AtomicU64,
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
}

/// Observability counters for a pool. These reflect *real* thread
/// scheduling and are therefore not deterministic; the timing model
/// never reads them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker lanes.
    pub lanes: usize,
    /// Jobs executed by each lane.
    pub jobs_per_lane: Vec<u64>,
    /// Most jobs ever waiting in the shared queue at once.
    pub queue_high_water: usize,
    /// Batches dispatched through [`WorkerPool::run`].
    pub batches: u64,
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
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
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
        let shared = Arc::new(PoolShared {
            queued: AtomicUsize::new(0),
            queue_high_water: AtomicUsize::new(0),
            jobs_per_lane: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            batches: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            panic_at: AtomicU64::new(u64::MAX),
            panic_sticky: AtomicBool::new(false),
        });
        if lanes == 1 {
            return WorkerPool {
                lanes,
                sender: None,
                workers: Vec::new(),
                shared,
                tele: OnceLock::new(),
            };
        }
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..lanes)
            .map(|lane| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("shef-shield-lane{lane}"))
                    .spawn(move || loop {
                        // Take the next job while holding the queue lock,
                        // then release it before running the job so other
                        // lanes keep draining.
                        // A lane that dies while holding this lock
                        // poisons the mutex; the receiver itself is
                        // still coherent, so surviving lanes recover it
                        // with `into_inner` instead of cascading the
                        // panic across the whole pool.
                        let job = {
                            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                            guard.recv()
                        };
                        match job {
                            Ok(job) => {
                                shared.queued.fetch_sub(job.jobs, Ordering::Relaxed);
                                // Count the jobs when the lane picks them
                                // up: `run` hands its results back to
                                // the caller, which may read the stats
                                // before this lane runs another line.
                                shared.jobs_per_lane[lane]
                                    .fetch_add(job.jobs as u64, Ordering::Relaxed);
                                (job.run)();
                            }
                            // Channel closed: the pool is shutting down.
                            Err(_) => break,
                        }
                    })
                    .expect("spawn shield worker lane")
            })
            .collect();
        WorkerPool {
            lanes,
            sender: Some(tx),
            workers,
            shared,
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

    /// Snapshot of the observability counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            lanes: self.lanes,
            jobs_per_lane: self
                .shared
                .jobs_per_lane
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            queue_high_water: self.shared.queue_high_water.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` over every item, fanning the work across the pool's
    /// lanes, and returns the results **in submission order**.
    ///
    /// Panics in `f` are caught on the worker lane and re-raised on the
    /// caller thread for the earliest-index failing item, so a poisoned
    /// batch cannot deadlock the pool.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        let n = items.len();
        if let Some(tele) = self.tele.get() {
            tele.note_batch(n);
        }
        let Some(sender) = &self.sender else {
            // Single lane: inline execution, trivially deterministic.
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        };
        if n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let f = Arc::new(f);
        let (done_tx, done_rx) = mpsc::channel();
        for (i, item) in items.into_iter().enumerate() {
            let queued = self.shared.queued.fetch_add(1, Ordering::Relaxed) + 1;
            self.shared
                .queue_high_water
                .fetch_max(queued, Ordering::Relaxed);
            let f = Arc::clone(&f);
            let done_tx = done_tx.clone();
            let job = Job {
                jobs: 1,
                run: Box::new(move || {
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)));
                    let _ = done_tx.send((i, outcome));
                }),
            };
            sender
                .send(job)
                .expect("pool lanes alive while handle held");
        }
        drop(done_tx);
        let mut slots: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, outcome) = done_rx.recv().expect("every job reports exactly once");
            slots[i] = Some(outcome);
        }
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot.expect("all slots filled") {
                Ok(r) => out.push(r),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    }

    /// Like [`WorkerPool::run`], but never unwinds into the caller:
    /// every job is drained, each panicked job gets exactly one inline
    /// retry on the caller thread, and jobs that fail the retry too are
    /// reported as empty slots in the outcome instead of re-raising.
    ///
    /// This is the degradation-aware entry point the batch datapath
    /// uses: a dying lane must not abandon sibling jobs (victim seals
    /// in particular exist only in the staged batch).
    ///
    /// Each lane runs one contiguous slice of the batch through a single
    /// call of `f`, which returns one result per job it is given; at one
    /// lane the slice is the whole batch. Lane `k` gets as many jobs as
    /// the round-robin model dispatches to it. Armed faults are still
    /// checked per job, by submission index, before its slice runs: a
    /// job whose check fires is left out, the jobs on either side of it
    /// run as two calls, and it is retried alone. If `f` itself panics
    /// on a call, that call's jobs run again one by one, so a panic is
    /// pinned on the job that raised it. Every outcome therefore equals
    /// one-job-per-call dispatch.
    pub fn try_run<T, R, F>(&self, items: &Arc<[T]>, f: F) -> TryRunOutcome<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&[T]) -> Vec<R> + Send + Sync + 'static,
    {
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
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
        if let Some(sender) = self.sender.as_ref().filter(|_| n > 1) {
            let f = Arc::new(f);
            outcome.results = self.fan_out(sender, items, first, &f);
            self.retry_panicked(items, first, &*f, &mut outcome);
        } else {
            outcome.results = run_slice(&self.shared, items, first, &f);
            self.retry_panicked(items, first, &f, &mut outcome);
        }
        if let Some(tele) = self.tele.get() {
            tele.lane_panics.add(outcome.lane_panics);
            tele.recovered_retries.add(outcome.recovered);
            tele.failed_jobs.add(outcome.failed.len() as u64);
        }
        outcome
    }

    /// Sends each lane its round-robin share of `items` as one slice and
    /// gathers the slots in submission order.
    fn fan_out<T, R, F>(
        &self,
        sender: &mpsc::Sender<Job>,
        items: &Arc<[T]>,
        first: u64,
        f: &Arc<F>,
    ) -> Vec<Option<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&[T]) -> Vec<R> + Send + Sync + 'static,
    {
        let n = items.len();
        let (done_tx, done_rx) = mpsc::channel();
        let mut start = 0;
        let mut slices = 0;
        for k in 0..self.lanes {
            let len = n / self.lanes + usize::from(k < n % self.lanes);
            if len == 0 {
                continue;
            }
            let queued = self.shared.queued.fetch_add(len, Ordering::Relaxed) + len;
            self.shared
                .queue_high_water
                .fetch_max(queued, Ordering::Relaxed);
            let (items, f, shared) = (Arc::clone(items), Arc::clone(f), Arc::clone(&self.shared));
            let done_tx = done_tx.clone();
            let range = start..start + len;
            let job = Job {
                jobs: len,
                run: Box::new(move || {
                    let at = first + range.start as u64;
                    let slots = run_slice(&shared, &items[range.clone()], at, &*f);
                    let _ = done_tx.send((range.start, slots));
                }),
            };
            sender
                .send(job)
                .expect("pool lanes alive while handle held");
            start += len;
            slices += 1;
        }
        drop(done_tx);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..slices {
            let (start, slots) = done_rx.recv().expect("every slice reports exactly once");
            for (slot, result) in results[start..].iter_mut().zip(slots) {
                *slot = result;
            }
        }
        results
    }

    /// Bounded retry: replays each panicked job once, alone and inline on
    /// the caller thread (deterministic, no lane involved). Replaying the
    /// same submission index means a one-shot armed fault has already
    /// disarmed itself, while a sticky fault fires again.
    fn retry_panicked<T, R>(
        &self,
        items: &[T],
        first: u64,
        f: &impl Fn(&[T]) -> Vec<R>,
        outcome: &mut TryRunOutcome<R>,
    ) {
        for (i, slot) in outcome.results.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            outcome.lane_panics += 1;
            let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.shared.maybe_injected_panic(first + i as u64);
                run_one(f, &items[i])
            }));
            match retry {
                Ok(r) => {
                    *slot = Some(r);
                    outcome.recovered += 1;
                }
                Err(_) => {
                    outcome.lane_panics += 1;
                    outcome.failed.push(i);
                }
            }
        }
    }

    /// Arms a one-shot injected lane fault: the `nth` job (0-based)
    /// dispatched through [`WorkerPool::try_run`] from now on panics on
    /// its first attempt; the bounded inline retry then succeeds. Test
    /// hook for transient-fault campaigns — [`WorkerPool::run`] jobs
    /// are not affected.
    pub fn arm_lane_panic(&self, nth: u64) {
        self.shared.panic_sticky.store(false, Ordering::Relaxed);
        let at = self
            .shared
            .submitted
            .load(Ordering::Relaxed)
            .wrapping_add(nth);
        self.shared.panic_at.store(at, Ordering::Relaxed);
    }

    /// Arms a sticky injected lane fault: like
    /// [`WorkerPool::arm_lane_panic`] but the retry panics too,
    /// modelling a persistently dead lane for that job.
    pub fn arm_lane_panic_sticky(&self, nth: u64) {
        self.shared.panic_sticky.store(true, Ordering::Relaxed);
        let at = self
            .shared
            .submitted
            .load(Ordering::Relaxed)
            .wrapping_add(nth);
        self.shared.panic_at.store(at, Ordering::Relaxed);
    }

    /// Disarms any armed injected lane fault.
    pub fn disarm_lane_panic(&self) {
        self.shared.panic_at.store(u64::MAX, Ordering::Relaxed);
        self.shared.panic_sticky.store(false, Ordering::Relaxed);
    }
}

/// One lane's slice of a [`WorkerPool::try_run`] batch, whose first
/// job has submission index `first`: `None` marks a job that panicked.
/// An armed fault fires on its own job; the jobs before and after it
/// run as two calls of `f`.
fn run_slice<T, R>(
    shared: &PoolShared,
    jobs: &[T],
    first: u64,
    f: &(impl Fn(&[T]) -> Vec<R> + ?Sized),
) -> Vec<Option<R>> {
    let armed = shared
        .panic_at
        .load(Ordering::Relaxed)
        .checked_sub(first)
        .filter(|&k| k < jobs.len() as u64);
    let Some(k) = armed.map(|k| k as usize) else {
        return run_part(f, jobs);
    };
    // The armed job panics here (a one-shot fault disarms as it fires)
    // and is left for the retry.
    let _ = std::panic::catch_unwind(|| shared.maybe_injected_panic(first + k as u64));
    let mut slots = run_part(f, &jobs[..k]);
    slots.push(None);
    slots.extend(run_part(f, &jobs[k + 1..]));
    slots
}

/// `f` over `jobs`, one slot per job. If `f` panics, the jobs run again
/// one by one, so the panic is pinned on the job that raised it.
fn run_part<T, R>(f: &(impl Fn(&[T]) -> Vec<R> + ?Sized), jobs: &[T]) -> Vec<Option<R>> {
    if jobs.is_empty() {
        return Vec::new();
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_all(f, jobs))) {
        Ok(results) => results.into_iter().map(Some).collect(),
        Err(_) => jobs
            .iter()
            .map(|job| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(f, job))).ok()
            })
            .collect(),
    }
}

/// `f` over `jobs`, checked to return one result per job.
fn run_all<T, R>(f: &(impl Fn(&[T]) -> Vec<R> + ?Sized), jobs: &[T]) -> Vec<R> {
    let results = f(jobs);
    assert_eq!(results.len(), jobs.len(), "one result per job");
    results
}

/// `f` over the single job `job`.
fn run_one<T, R>(f: &(impl Fn(&[T]) -> Vec<R> + ?Sized), job: &T) -> R {
    run_all(f, std::slice::from_ref(job))
        .pop()
        .expect("one result")
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every lane out of `recv`.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
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

    #[test]
    fn results_are_in_submission_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..257).collect();
        let out = pool.run(items, |i, x| {
            // Stagger lane timing so completion order scrambles.
            if i % 7 == 0 {
                thread::sleep(std::time::Duration::from_micros(50));
            }
            x * 3 + 1
        });
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3 + 1);
        }
    }

    #[test]
    fn single_lane_runs_inline() {
        let pool = WorkerPool::new(1);
        let tid = thread::current().id();
        let out = pool.run(vec![(); 8], move |i, ()| {
            assert_eq!(thread::current().id(), tid, "lane 1 must execute inline");
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(pool.stats().jobs_per_lane.iter().all(|&j| j == 0));
    }

    #[test]
    fn zero_lanes_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.lanes(), 1);
        assert_eq!(pool.run(vec![5u8], |_, x| x + 1), vec![6]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.run(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn lanes_share_the_work() {
        let pool = WorkerPool::new(4);
        // Enough jobs that every lane should get some.
        let _ = pool.run((0..4096u64).collect(), |_, x| x.wrapping_mul(2));
        let stats = pool.stats();
        assert_eq!(stats.lanes, 4);
        assert_eq!(stats.jobs_per_lane.iter().sum::<u64>(), 4096);
        assert!(stats.batches >= 1);
        assert!(stats.queue_high_water >= 1);
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let out = pool.run((0..17u64).collect(), move |_, x| x + round);
            assert_eq!(out, (round..17 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_run_matches_run_on_clean_batches() {
        let pool = WorkerPool::new(4);
        let out = pool.try_run(&(0..64u64).collect(), each(|x| x * 2));
        assert_eq!(out.failed, Vec::<usize>::new());
        assert_eq!(out.lane_panics, 0);
        assert_eq!(out.recovered, 0);
        let values: Vec<u64> = out.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(values, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
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
        // The pool (and its queue mutex) survive for the next batch.
        assert_eq!(pool.run(vec![1u64, 2], |_, x| x * 10), vec![10, 20]);
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

    #[test]
    fn panic_in_job_propagates_without_deadlock() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run((0..8u64).collect(), |_, x| {
                assert!(x != 5, "boom");
                x
            })
        }));
        assert!(result.is_err());
        // The pool is still usable afterwards.
        assert_eq!(pool.run(vec![1u64, 2], |_, x| x * 10), vec![10, 20]);
    }
}
