//! Shared reporting helpers for the table/figure regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§6), printing `measured` next to `paper` so the
//! comparison is mechanical; each one's output is pinned in
//! `bench/paper/<name>.txt`. Run them with
//! `cargo run --release -p shef-bench --bin <name>`.
//!
//! This library crate only holds the formatting shared by those
//! binaries — section headers and measured-vs-paper rows:
//!
//! ```
//! shef_bench::header("Fig. 5 — vecadd overhead");
//! shef_bench::overhead_row("AES128_16X", 1.18, Some(1.2));
//! shef_bench::overhead_row("unvalidated point", 2.41, None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

/// Prints one measured-vs-paper row for a normalized overhead.
pub fn overhead_row(label: &str, measured: f64, paper: Option<f64>) {
    match paper {
        Some(p) => println!("{label:<32} measured={measured:>6.2}x   paper={p:>6.2}x"),
        None => println!("{label:<32} measured={measured:>6.2}x   paper=   n/a"),
    }
}

/// Prints one measured-vs-paper row for a percentage.
pub fn percent_row(label: &str, measured: f64, paper: Option<f64>) {
    match paper {
        Some(p) => println!("{label:<32} measured={measured:>6.2}%   paper={p:>6.2}%"),
        None => println!("{label:<32} measured={measured:>6.2}%   paper=   n/a"),
    }
}

/// Prints a free-form key/value row.
pub fn kv_row(label: &str, value: &str) {
    println!("{label:<32} {value}");
}

/// Formats cycles as microseconds at the F1 clock.
#[must_use]
pub fn cycles_to_us(cycles: shef_fpga::clock::Cycles) -> f64 {
    shef_fpga::clock::ClockDomain::F1_DEFAULT.cycles_to_us(cycles)
}

/// One `BENCH_*.json` measurement: the modelled (deterministic) cycle
/// counts for a workload at a given lane fan-out. The CI bench gate
/// diffs these records across commits, so the numbers must come from
/// the cost model, never wall-clock.
#[derive(Debug, Clone)]
pub struct LaneRecord {
    /// Workload label (stable across commits; the diff join key).
    pub workload: String,
    /// Crypto profile label.
    pub profile: String,
    /// Worker-pool lanes (1 = the serial Shield).
    pub lanes: usize,
    /// Insecure-baseline modelled cycles.
    pub baseline_cycles: u64,
    /// Shielded modelled cycles at this lane count.
    pub shield_cycles: u64,
}

impl LaneRecord {
    /// Shielded / baseline overhead ratio.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.shield_cycles as f64 / self.baseline_cycles.max(1) as f64
    }

    /// Serializes as a single JSON object on one line (the bench-diff
    /// script is line-oriented awk; keep it that way).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"profile\": \"{}\", \"lanes\": {}, \"baseline_cycles\": {}, \"shield_cycles\": {}, \"overhead\": {:.4}}}",
            self.workload, self.profile, self.lanes, self.baseline_cycles, self.shield_cycles,
            self.overhead()
        )
    }
}

/// Writes a `BENCH_*.json` report: a schema header plus one record per
/// line, so shell tooling can diff it without a JSON parser.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_bench_json(path: &str, records: &[LaneRecord]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{\"schema\": \"shef-bench-lanes/v1\", \"records\": [")?;
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(f, "{}{}", r.to_json_line(), sep)?;
    }
    writeln!(f, "]}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::LaneRecord;

    #[test]
    fn cycles_to_us_at_250mhz() {
        assert_eq!(super::cycles_to_us(shef_fpga::clock::Cycles(250)), 1.0);
    }

    #[test]
    fn lane_record_json_is_one_line() {
        let r = LaneRecord {
            workload: "vecadd_256k".into(),
            profile: "aes128_4x".into(),
            lanes: 4,
            baseline_cycles: 1000,
            shield_cycles: 1500,
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"lanes\": 4"));
        assert!(line.contains("\"overhead\": 1.5000"));
    }
}
