//! Span-based tracer over a deterministic logical clock.
//!
//! Timestamps are *modelled cycles* (e.g. snapshots of the ShEF cost
//! ledger), never wall time, so traces of the same workload are
//! byte-identical run to run — even when the traced code executes on
//! real worker threads. A span is a named scope with a start and end
//! timestamp; the tracer keeps per-scope aggregates for every span plus
//! the raw first [`SPAN_CAP`] spans (keeping the *first* N is
//! deterministic, unlike a ring buffer fed from racing threads).
//!
//! Hot paths resolve a [`Scope`] once and record through it: a record
//! is a few atomic updates plus, until the raw list is full, one short
//! lock — no name lookup and no allocation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum number of raw spans retained per registry; later spans still
/// update the per-scope aggregates and bump the dropped count.
pub const SPAN_CAP: usize = 256;

/// One recorded scope interval on the logical clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Scope name, e.g. `shield.engine.crypto`.
    pub scope: String,
    /// Logical-clock value when the scope was entered.
    pub start_cycles: u64,
    /// Logical-clock value when the scope was exited.
    pub end_cycles: u64,
}

impl Span {
    /// Span length on the logical clock; zero if the clock did not advance.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end_cycles.saturating_sub(self.start_cycles)
    }
}

/// Aggregate of every span recorded under one scope name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeAgg {
    /// Number of spans recorded under this scope.
    pub count: u64,
    /// Sum of span durations, in modelled cycles.
    pub total_cycles: u64,
    /// Longest single span, in modelled cycles.
    pub max_cycles: u64,
}

/// Lock-free aggregate cells of one scope.
#[derive(Debug, Default)]
struct ScopeCells {
    count: AtomicU64,
    total_cycles: AtomicU64,
    max_cycles: AtomicU64,
}

/// The registry's raw span list: the first [`SPAN_CAP`] spans. Once
/// full, recording skips the lock; the dropped count is the scopes'
/// total count minus the kept spans.
#[derive(Debug, Default)]
pub(crate) struct RawSpans {
    kept: Mutex<Vec<(Arc<str>, u64, u64)>>,
    full: AtomicBool,
}

impl RawSpans {
    fn push(&self, scope: &Arc<str>, start_cycles: u64, end_cycles: u64) {
        if self.full.load(Ordering::Relaxed) {
            return;
        }
        let mut kept = crate::lock(&self.kept);
        if kept.len() == SPAN_CAP {
            self.full.store(true, Ordering::Relaxed);
            return;
        }
        if kept.capacity() == 0 {
            // One allocation for the whole list, on the first span.
            kept.reserve_exact(SPAN_CAP);
        }
        kept.push((Arc::clone(scope), start_cycles, end_cycles));
    }

    /// The kept spans in record order.
    pub(crate) fn snapshot(&self) -> Vec<Span> {
        crate::lock(&self.kept)
            .iter()
            .map(|(scope, start_cycles, end_cycles)| Span {
                scope: scope.to_string(),
                start_cycles: *start_cycles,
                end_cycles: *end_cycles,
            })
            .collect()
    }
}

/// A span scope resolved once by name (through
/// [`crate::Telemetry::scope`]), like a [`crate::Counter`]: recording
/// through it updates the scope's aggregates with atomics and, while
/// the raw list has room, appends under a short lock. Only a
/// registry's first span allocates (the raw list).
///
/// ```
/// let t = shef_telemetry::Telemetry::new();
/// let walk = t.scope("shield.engine.walk");
/// walk.record(0, 40);
/// walk.record(40, 100);
/// let report = t.report();
/// assert_eq!(report.scopes["shield.engine.walk"].count, 2);
/// assert_eq!(report.scopes["shield.engine.walk"].max_cycles, 60);
/// assert_eq!(report.spans.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Scope {
    name: Arc<str>,
    cells: Arc<ScopeCells>,
    raw: Arc<RawSpans>,
}

impl Scope {
    pub(crate) fn new(name: &str, raw: &Arc<RawSpans>) -> Self {
        Scope {
            name: Arc::from(name),
            cells: Arc::default(),
            raw: Arc::clone(raw),
        }
    }

    /// Record a span of this scope from `start_cycles` to `end_cycles`
    /// on the logical clock. A backwards clock counts as zero duration.
    pub fn record(&self, start_cycles: u64, end_cycles: u64) {
        let duration = end_cycles.saturating_sub(start_cycles);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        crate::metrics::saturating_add(&self.cells.total_cycles, duration);
        if duration > self.cells.max_cycles.load(Ordering::Relaxed) {
            self.cells.max_cycles.fetch_max(duration, Ordering::Relaxed);
        }
        self.raw.push(&self.name, start_cycles, end_cycles);
    }

    /// Spans recorded under this scope so far.
    pub(crate) fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// The aggregate so far; `None` until a span was recorded, so a
    /// scope that was only resolved stays out of reports.
    pub(crate) fn aggregate(&self) -> Option<ScopeAgg> {
        let count = self.count();
        (count > 0).then(|| ScopeAgg {
            count,
            total_cycles: self.cells.total_cycles.load(Ordering::Relaxed),
            max_cycles: self.cells.max_cycles.load(Ordering::Relaxed),
        })
    }
}
