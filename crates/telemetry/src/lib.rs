//! # shef-telemetry
//!
//! Deterministic observability substrate for the ShEF Shield: a metrics
//! registry (counters, gauges, bounded histograms), a span-based tracer,
//! and CI-consumable exporters.
//!
//! ## Model
//!
//! A [`Telemetry`] value is a cheap-clone handle over one shared
//! registry. Instruments are resolved by name once (get-or-create,
//! behind a short registration mutex) and then updated **lock-free**
//! from hot paths — every update is a single `AtomicU64` operation on a
//! pre-resolved [`Counter`], [`Gauge`] or [`Histogram`] handle.
//!
//! The tracer records named scopes, through [`Scope`] handles resolved
//! the same way, on a **deterministic logical clock**: timestamps are
//! modelled cycles (snapshots of the ShEF cost ledger), never wall
//! time. Only model-derived quantities belong in a registry; anything
//! tied to real thread scheduling would break the byte-identical-report
//! guarantee that CI relies on.
//!
//! ## Example
//!
//! ```
//! use shef_telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! // Hot path: resolve once, update lock-free.
//! let hits = t.counter("shield.engine.hits");
//! for _ in 0..3 {
//!     hits.inc();
//! }
//! t.gauge("shield.engine.lanes").set(4);
//! t.histogram("shield.engine.batch_jobs", &[1, 4, 16]).observe(8);
//! // Span on the logical clock (modelled cycles, not wall time).
//! t.trace("shield.engine.crypto", 1_000, 1_640);
//!
//! let report = t.report();
//! assert_eq!(report.counters["shield.engine.hits"], 3);
//! assert_eq!(report.scopes["shield.engine.crypto"].total_cycles, 640);
//! // Exporters are deterministic: same updates => byte-identical text.
//! assert_eq!(report.to_json(), t.report().to_json());
//! ```

mod metrics;
mod report;
mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use report::{json_escape, HistogramSnapshot, Report, REPORT_SCHEMA};
pub use trace::{Scope, ScopeAgg, Span, SPAN_CAP};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use trace::RawSpans;

#[derive(Debug)]
enum MetricSlot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Default)]
struct Inner {
    /// Registration is the cold path: a short mutex around the name
    /// table. Handles returned from it update lock-free.
    metrics: Mutex<BTreeMap<String, MetricSlot>>,
    /// Span scopes by name; registration only, like `metrics`.
    scopes: Mutex<BTreeMap<String, Scope>>,
    spans: Arc<RawSpans>,
}

/// Shared handle to one telemetry registry.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// instruments, so a registry can be attached across layers — Shield,
/// engine sets, worker pool, DRAM model — and snapshotted once at the
/// end of a run via [`Telemetry::report`].
#[derive(Clone, Debug, Default)]
pub struct Telemetry(Arc<Inner>);

impl Telemetry {
    /// Create an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if both handles point at the same registry.
    #[must_use]
    pub fn same_registry(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind — instrument kinds are part of the schema, so a kind clash
    /// is a programming error, not a runtime condition.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = lock(&self.0.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricSlot::Counter(Counter::new()))
        {
            MetricSlot::Counter(c) => c.clone(),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    /// Panics on an instrument-kind clash (see [`Telemetry::counter`]).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = lock(&self.0.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricSlot::Gauge(Gauge::new()))
        {
            MetricSlot::Gauge(g) => g.clone(),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram named `name` with the given inclusive
    /// upper `bounds` (an overflow bucket is added implicitly).
    ///
    /// # Panics
    /// Panics on an instrument-kind clash, on empty or non-increasing
    /// `bounds`, or if the histogram already exists with different
    /// bounds.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut metrics = lock(&self.0.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricSlot::Histogram(Histogram::new(bounds)))
        {
            MetricSlot::Histogram(h) => {
                assert_eq!(
                    h.bounds(),
                    bounds,
                    "telemetry histogram {name:?} re-registered with different bounds"
                );
                h.clone()
            }
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the span scope named `name`. A scope appears in
    /// reports once it has recorded a span.
    #[must_use]
    pub fn scope(&self, name: &str) -> Scope {
        let mut scopes = lock(&self.0.scopes);
        if let Some(scope) = scopes.get(name) {
            return scope.clone();
        }
        let scope = Scope::new(name, &self.0.spans);
        scopes.insert(name.to_string(), scope.clone());
        scope
    }

    /// Record a span: scope `name` ran from `start_cycles` to
    /// `end_cycles` on the logical clock. Aggregates always update; the
    /// raw span list keeps the first [`SPAN_CAP`] spans and counts the
    /// rest as dropped. Hot paths resolve a [`Scope`] once instead.
    pub fn trace(&self, name: &str, start_cycles: u64, end_cycles: u64) {
        self.scope(name).record(start_cycles, end_cycles);
    }

    /// Snapshot the registry into an ordered, deterministic [`Report`].
    #[must_use]
    pub fn report(&self) -> Report {
        let metrics = lock(&self.0.metrics);
        let mut report = Report::default();
        for (name, slot) in metrics.iter() {
            match slot {
                MetricSlot::Counter(c) => {
                    report.counters.insert(name.clone(), c.get());
                }
                MetricSlot::Gauge(g) => {
                    report.gauges.insert(name.clone(), g.get());
                }
                MetricSlot::Histogram(h) => {
                    report.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds().to_vec(),
                            counts: h.bucket_counts(),
                            overflow: h.overflow(),
                            sum: h.sum(),
                            count: h.count(),
                        },
                    );
                }
            }
        }
        drop(metrics);
        // Spans first: a record counts before it keeps, so every kept
        // span is already in the counts read after.
        report.spans = self.0.spans.snapshot();
        let scopes = lock(&self.0.scopes);
        report.scopes = scopes
            .iter()
            .filter_map(|(name, scope)| Some((name.clone(), scope.aggregate()?)))
            .collect();
        let recorded: u64 = scopes.values().map(Scope::count).sum();
        report.spans_dropped = recorded.saturating_sub(report.spans.len() as u64);
        report
    }
}

/// Lock a mutex, recovering from poisoning: telemetry must never turn a
/// worker-lane panic (which the Shield is designed to survive) into a
/// second panic on the observer side.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let t = Telemetry::new();
        let c = t.counter("a.b");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Get-or-create returns a handle to the same underlying cell.
        assert_eq!(t.counter("a.b").get(), 10);

        let g = t.gauge("g");
        g.set(5);
        g.record_max(3);
        assert_eq!(g.get(), 5);
        g.record_max(8);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let t = Telemetry::new();
        let c = t.counter("sat");
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_zero_lands_in_first_bucket() {
        let t = Telemetry::new();
        let h = t.histogram("h", &[1, 4, 16]);
        h.observe(0);
        assert_eq!(h.bucket_counts(), vec![1, 0, 0]);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_max_bound_is_inclusive() {
        let t = Telemetry::new();
        let h = t.histogram("h", &[1, 4, 16]);
        h.observe(16);
        assert_eq!(h.bucket_counts(), vec![0, 0, 1]);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_above_max_bound_overflows() {
        let t = Telemetry::new();
        let h = t.histogram("h", &[1, 4, 16]);
        h.observe(17);
        h.observe(u64::MAX);
        assert_eq!(h.bucket_counts(), vec![0, 0, 0]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_interior_bounds_are_inclusive() {
        let t = Telemetry::new();
        let h = t.histogram("h", &[1, 4, 16]);
        h.observe(1);
        h.observe(2);
        h.observe(4);
        h.observe(5);
        assert_eq!(h.bucket_counts(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let t = Telemetry::new();
        let _ = t.histogram("bad", &[4, 4]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let t = Telemetry::new();
        let _ = t.counter("x");
        let _ = t.gauge("x");
    }

    #[test]
    fn spans_aggregate_and_cap() {
        let t = Telemetry::new();
        for i in 0..(SPAN_CAP as u64 + 10) {
            t.trace("walk", i, i + 2);
        }
        let r = t.report();
        assert_eq!(r.spans.len(), SPAN_CAP);
        assert_eq!(r.spans_dropped, 10);
        let agg = r.scopes["walk"];
        assert_eq!(agg.count, SPAN_CAP as u64 + 10);
        assert_eq!(agg.total_cycles, 2 * (SPAN_CAP as u64 + 10));
        assert_eq!(agg.max_cycles, 2);
        // First-N retention: span 0 is kept, the tail is dropped.
        assert_eq!(r.spans[0].start_cycles, 0);
    }

    #[test]
    fn scope_handles_share_one_scope_and_stay_silent_until_used() {
        let t = Telemetry::new();
        let idle = t.scope("idle");
        let walk = t.scope("walk");
        let again = t.scope("walk");
        // Spread the cap over two scopes so the dropped count has to
        // come from both.
        for i in 0..(SPAN_CAP as u64) {
            walk.record(i, i + 3);
            again.record(i, i + 1);
        }
        t.trace("walk", 0, 10);
        let r = t.report();
        assert!(!r.scopes.contains_key("idle"));
        assert_eq!(r.scopes["walk"].count, 2 * SPAN_CAP as u64 + 1);
        assert_eq!(r.scopes["walk"].max_cycles, 10);
        assert_eq!(r.spans.len(), SPAN_CAP);
        assert_eq!(r.spans_dropped, SPAN_CAP as u64 + 1);
        assert_eq!(r.spans[1].duration(), 1);
        // Recording after the cap still aggregates.
        idle.record(5, 7);
        let r = t.report();
        assert_eq!(r.scopes["idle"].total_cycles, 2);
        assert_eq!(r.spans_dropped, SPAN_CAP as u64 + 2);
    }

    #[test]
    fn backwards_clock_clamps_to_zero_duration() {
        let t = Telemetry::new();
        t.trace("odd", 10, 3);
        assert_eq!(t.report().scopes["odd"].total_cycles, 0);
    }

    #[test]
    fn concurrent_updates_are_lock_free_and_complete() {
        let t = Telemetry::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = t.counter("shared");
                let h = t.histogram("hist", &[10]);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.observe(5);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(t.counter("shared").get(), 8000);
        let r = t.report();
        assert_eq!(r.histograms["hist"].count, 8000);
        assert_eq!(r.histograms["hist"].sum, 40_000);
    }

    #[test]
    fn report_json_is_deterministic_and_line_oriented() {
        let build = || {
            let t = Telemetry::new();
            // Register in different orders; output must not care.
            t.counter("z.last").add(2);
            t.counter("a.first").inc();
            t.gauge("mid").set(7);
            t.histogram("h", &[2, 8]).observe(3);
            t.trace("phase", 100, 250);
            t.report().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("\"schema\": \"shef-telemetry/v1\""));
        // Sorted: counters a.first before z.last, every line valid JSON shape.
        assert!(lines[1].contains("\"name\": \"a.first\""));
        assert!(lines[2].contains("\"name\": \"z.last\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn prometheus_export_sanitizes_and_accumulates() {
        let t = Telemetry::new();
        t.counter("shield.pool.lane0.dispatched").add(4);
        t.histogram("lat", &[1, 10]).observe(1);
        t.histogram("lat", &[1, 10]).observe(99);
        let text = t.report().to_prometheus();
        assert!(text.contains("shield_pool_lane0_dispatched 4"));
        assert!(text.contains("lat_bucket{le=\"1\"} 1"));
        // +Inf bucket is cumulative over bounded buckets and overflow.
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_sum 100"));
        assert!(text.contains("lat_count 2"));
    }

    #[test]
    fn summary_table_mentions_nonzero_metrics() {
        let t = Telemetry::new();
        t.counter("silent").add(0);
        t.counter("loud").add(3);
        t.trace("walk", 0, 50);
        let table = t.report().summary_table();
        assert!(table.contains("loud"));
        assert!(!table.contains("silent"));
        assert!(table.contains("walk"));
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::new();
        let t2 = t.clone();
        assert!(t.same_registry(&t2));
        t2.counter("via.clone").inc();
        assert_eq!(t.report().counters["via.clone"], 1);
        assert!(!t.same_registry(&Telemetry::new()));
    }

    #[test]
    fn json_lines_are_escaped() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\r\t\u{1}"), "\\r\\t\\u0001");
    }
}
