//! Metric instruments: counters, gauges, and bounded histograms.
//!
//! Every instrument is a cheap-clone handle over shared atomics. Callers
//! resolve a handle once (through [`crate::Telemetry`]) and then update it
//! from hot paths without taking any lock: updates are plain
//! `AtomicU64` read-modify-write operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Adds `n` to `cell`, saturating at `u64::MAX` instead of wrapping.
/// Adding zero touches nothing.
pub(crate) fn saturating_add(cell: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Monotonically increasing counter.
///
/// ```
/// let t = shef_telemetry::Telemetry::new();
/// let hits = t.counter("shield.engine.hits");
/// hits.inc();
/// hits.add(4);
/// assert_eq!(hits.get(), 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub(crate) fn new() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Saturates at `u64::MAX` instead of wrapping so a
    /// long-running registry can never report a small value after overflow.
    pub fn add(&self, n: u64) {
        saturating_add(&self.0, n);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge with a monotone-max helper.
///
/// ```
/// let t = shef_telemetry::Telemetry::new();
/// let depth = t.gauge("shield.engine.queue_depth_hwm");
/// depth.set(3);
/// depth.record_max(7);
/// depth.record_max(2);
/// assert_eq!(depth.get(), 7);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub(crate) fn new() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Overwrite the gauge with `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger than the current value.
    pub fn record_max(&self, v: u64) {
        // A plain load first: most samples do not raise the mark.
        if v > self.0.load(Ordering::Relaxed) {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bounded histogram with explicit inclusive upper bounds plus one
/// overflow bucket.
///
/// A sample `v` lands in the first bucket whose bound satisfies
/// `v <= bound`; samples larger than every bound land in the overflow
/// bucket. Bounds must be non-empty and strictly increasing.
///
/// ```
/// let t = shef_telemetry::Telemetry::new();
/// let h = t.histogram("shield.engine.batch_jobs", &[1, 4, 16]);
/// h.observe(0);   // first bucket (0 <= 1)
/// h.observe(16);  // last bounded bucket (inclusive)
/// h.observe(17);  // overflow bucket
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_counts(), vec![1, 0, 1]);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Arc<Vec<u64>>,
    /// `bounds.len()` bounded buckets followed by one overflow bucket.
    buckets: Arc<Vec<AtomicU64>>,
    sum: Arc<AtomicU64>,
    count: Arc<AtomicU64>,
}

impl Histogram {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: Arc::new(bounds.to_vec()),
            buckets: Arc::new(buckets),
            sum: Arc::new(AtomicU64::new(0)),
            count: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a wrapped sum would report a tiny
        // total after ~2^64 observed cycles, which reads as a regression.
        saturating_add(&self.sum, v);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Inclusive upper bounds of the bounded buckets.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Sample counts of the bounded buckets (same order as [`Self::bounds`]).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets[..self.bounds.len()]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of samples larger than every bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.buckets[self.bounds.len()].load(Ordering::Relaxed)
    }

    /// Sum of all observed samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}
