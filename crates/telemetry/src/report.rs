//! Deterministic snapshots and exporters.
//!
//! A [`Report`] is an owned, ordered snapshot of a registry: metrics
//! sorted by name (`BTreeMap` order), scope aggregates sorted by name,
//! raw spans in record order. Two registries that observed the same
//! sequence of updates therefore export *byte-identical* text, which is
//! what lets CI `cmp` two runs of the same seeded workload.
//!
//! Exporters:
//! - [`Report::to_json`] — line-JSON: one header line with the schema
//!   tag `shef-telemetry/v1` plus one self-contained JSON object per
//!   record, so shell/awk gates can parse it without JSON tooling;
//! - [`Report::to_prometheus`] — Prometheus text exposition format;
//! - [`Report::summary_table`] — human-readable run-report table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{ScopeAgg, Span};

/// Schema tag emitted on the first line of [`Report::to_json`].
pub const REPORT_SCHEMA: &str = "shef-telemetry/v1";

/// Point-in-time snapshot of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the bounded buckets.
    pub bounds: Vec<u64>,
    /// Sample counts per bounded bucket.
    pub counts: Vec<u64>,
    /// Samples larger than every bound.
    pub overflow: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Total number of samples.
    pub count: u64,
}

/// Deterministic snapshot of a [`crate::Telemetry`] registry.
///
/// ```
/// let t = shef_telemetry::Telemetry::new();
/// t.counter("shield.engine.hits").add(3);
/// t.trace("shield.engine.walk", 0, 120);
/// let report = t.report();
/// assert_eq!(report.counters["shield.engine.hits"], 3);
/// assert!(report.to_json().starts_with("{\"schema\": \"shef-telemetry/v1\""));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-scope span aggregates by scope name.
    pub scopes: BTreeMap<String, ScopeAgg>,
    /// Raw spans in record order (first [`crate::SPAN_CAP`] only).
    pub spans: Vec<Span>,
    /// Spans recorded after the raw buffer filled up.
    pub spans_dropped: u64,
}

impl Report {
    /// Render the line-JSON form consumed by `scripts/check_report.sh`.
    ///
    /// First line is a header object carrying the schema tag and record
    /// counts; every following line is one complete JSON object with a
    /// `"kind"` discriminator (`counter`, `gauge`, `histogram`, `scope`,
    /// `span`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\": \"{}\", \"counters\": {}, \"gauges\": {}, \"histograms\": {}, \"scopes\": {}, \"spans\": {}, \"spans_dropped\": {}}}",
            REPORT_SCHEMA,
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len(),
            self.scopes.len(),
            self.spans.len(),
            self.spans_dropped,
        );
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\": \"counter\", \"name\": \"{}\", \"value\": {v}}}",
                json_escape(name)
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\": \"gauge\", \"name\": \"{}\", \"value\": {v}}}",
                json_escape(name)
            );
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{{\"kind\": \"histogram\", \"name\": \"{}\", \"bounds\": {}, \"counts\": {}, \"overflow\": {}, \"sum\": {}, \"count\": {}}}",
                json_escape(name),
                json_u64_array(&h.bounds),
                json_u64_array(&h.counts),
                h.overflow,
                h.sum,
                h.count,
            );
        }
        for (name, agg) in &self.scopes {
            let _ = writeln!(
                out,
                "{{\"kind\": \"scope\", \"name\": \"{}\", \"count\": {}, \"total_cycles\": {}, \"max_cycles\": {}}}",
                json_escape(name),
                agg.count,
                agg.total_cycles,
                agg.max_cycles,
            );
        }
        for span in &self.spans {
            let _ = writeln!(
                out,
                "{{\"kind\": \"span\", \"name\": \"{}\", \"start_cycles\": {}, \"end_cycles\": {}}}",
                json_escape(&span.scope),
                span.start_cycles,
                span.end_cycles,
            );
        }
        out
    }

    /// Render the Prometheus text exposition format.
    ///
    /// Metric names are sanitized to `[a-zA-Z0-9_:]` (dots and brackets
    /// become `_`). Histograms expand to the conventional
    /// `_bucket{le=...}` / `_sum` / `_count` series; scope aggregates
    /// export as `<scope>_cycles_total`, `<scope>_cycles_max` and
    /// `<scope>_spans_total`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (bound, c) in h.bounds.iter().zip(&h.counts) {
                cumulative += c;
                let _ = writeln!(out, "{n}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            cumulative += h.overflow;
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        for (name, agg) in &self.scopes {
            let n = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {n}_cycles_total counter");
            let _ = writeln!(out, "{n}_cycles_total {}", agg.total_cycles);
            let _ = writeln!(out, "# TYPE {n}_cycles_max gauge");
            let _ = writeln!(out, "{n}_cycles_max {}", agg.max_cycles);
            let _ = writeln!(out, "# TYPE {n}_spans_total counter");
            let _ = writeln!(out, "{n}_spans_total {}", agg.count);
        }
        out
    }

    /// Render a fixed-width run-report table: scope phase breakdown
    /// first, then non-zero counters, gauges and histogram totals.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.scopes.is_empty() {
            let _ = writeln!(
                out,
                "{:<36} {:>10} {:>14} {:>12}",
                "scope", "spans", "total_cycles", "max_cycles"
            );
            for (name, agg) in &self.scopes {
                let _ = writeln!(
                    out,
                    "{:<36} {:>10} {:>14} {:>12}",
                    name, agg.count, agg.total_cycles, agg.max_cycles
                );
            }
        }
        let nonzero_counters: Vec<_> = self.counters.iter().filter(|(_, v)| **v != 0).collect();
        if !nonzero_counters.is_empty() {
            let _ = writeln!(out, "{:<36} {:>10}", "counter", "value");
            for (name, v) in nonzero_counters {
                let _ = writeln!(out, "{name:<36} {v:>10}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<36} {:>10}", "gauge", "value");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:<36} {v:>10}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<36} {:>10} {:>14} {:>12}",
                "histogram", "samples", "sum", "overflow"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<36} {:>10} {:>14} {:>12}",
                    name, h.count, h.sum, h.overflow
                );
            }
        }
        out
    }
}

fn json_u64_array(vals: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Escapes `s` for a JSON string literal: quotes, backslashes, the short
/// `\n`, `\r` and `\t` forms, and `\u00XX` for the other control
/// characters.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn prometheus_name(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}
