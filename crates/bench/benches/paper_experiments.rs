//! Regenerates every table and figure of the paper's evaluation under
//! `cargo bench --workspace`.
//!
//! Each experiment lives in its own binary (`src/bin/<name>.rs`) so it
//! can also be run individually with
//! `cargo run --release -p shef-bench --bin <name>`. This bench target
//! drives them all in sequence and forwards their output, so a single
//! `cargo bench` leaves the full paper-vs-measured record in the log
//! (the source of EXPERIMENTS.md).

use std::process::Command;

/// Table/figure regenerators, in paper order.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Table 1: Shield component utilization"),
    ("fig5", "Figure 5: vector-add overhead vs input size"),
    ("matmul_micro", "§6.2.2: matrix-multiply microbenchmark"),
    ("table2", "Table 2: SDP overhead across Shield designs"),
    ("fig6", "Figure 6: five accelerators × crypto profiles"),
    ("table3", "Table 3: inclusive utilization per accelerator"),
    ("boot_time", "§6.1: end-to-end secure boot latency"),
    ("dnnweaver_latency", "Appendix A.6: DNNWeaver LeNet latency"),
    (
        "ablations",
        "Design-knob ablations (chunk, buffer, counters, side channel)",
    ),
    (
        "integrity_ablation",
        "Integrity-scheme ablation (counters vs Bonsai Merkle Tree)",
    ),
    (
        "lane_scaling",
        "Parallel-datapath lane scaling (source of the CI bench gate)",
    ),
];

fn main() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut failures = Vec::new();
    for (bin, title) in EXPERIMENTS {
        println!();
        println!("################################################################");
        println!("## {title}");
        println!("################################################################");
        let status = Command::new(&cargo)
            .args([
                "run",
                "--release",
                "--quiet",
                "-p",
                "shef-bench",
                "--bin",
                bin,
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("experiment {bin} exited with {s}");
                failures.push(*bin);
            }
            Err(e) => {
                eprintln!("failed to launch {bin}: {e}");
                failures.push(*bin);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "experiments failed: {failures:?} — see output above"
    );
    println!();
    println!("all {} experiments regenerated", EXPERIMENTS.len());
}
