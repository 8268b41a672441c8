//! Lane-scaling sweep of the parallel Shield datapath, and the data
//! source for the CI bench gate.
//!
//! Runs a fixed set of shield-bound workloads through the serial and
//! multi-lane datapaths, reporting the *modelled* cycle counts from the
//! bottleneck cost model. Everything printed here is deterministic —
//! round-robin job dispatch, no wall-clock — which is what lets CI gate
//! on the numbers instead of treating them as noise.
//!
//! ```text
//! cargo run --release -p shef-bench --bin lane_scaling -- \
//!     --lanes 1,2,4,8 --json BENCH_ci.json --telemetry lanes.tele.json
//! ```
//!
//! `--telemetry PATH` accumulates every shielded run of the sweep into
//! one shared [`shef_telemetry::Telemetry`] registry and writes the
//! line-JSON report (schema `shef-telemetry/v1`) to PATH — the artifact
//! the `telemetry-report` CI job checks with `scripts/check_report.sh`.

use shef_accel::dnnweaver::DnnWeaver;
use shef_accel::harness::overhead;
use shef_accel::matmul::MatMul;
use shef_accel::vecadd::VectorAdd;
use shef_accel::{Accelerator, CryptoProfile};
use shef_bench::{header, write_bench_json, LaneRecord};
use shef_telemetry::Telemetry;

struct Workload {
    name: &'static str,
    profile_name: &'static str,
    profile: CryptoProfile,
    make: Box<dyn Fn() -> Box<dyn Accelerator>>,
}

/// The gate's workload set. Intentionally crypto-bound (4× S-box
/// profiles): that is where the engine-set lane is the bottleneck and a
/// datapath regression actually moves the end-to-end number.
fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "vecadd_256k",
            profile_name: "aes128_4x",
            profile: CryptoProfile::AES128_4X,
            make: Box::new(|| Box::new(VectorAdd::new(256 * 1024, 1))),
        },
        Workload {
            name: "matmul_64",
            profile_name: "aes128_4x",
            profile: CryptoProfile::AES128_4X,
            make: Box::new(|| Box::new(MatMul::new(64, 3))),
        },
        Workload {
            name: "dnnweaver_b1",
            profile_name: "aes256_4x",
            profile: CryptoProfile::AES256_4X,
            make: Box::new(|| Box::new(DnnWeaver::new(1, 5))),
        },
    ]
}

fn parse_args() -> (Vec<usize>, Option<String>, Option<String>) {
    let mut lanes = vec![1usize, 2, 4, 8];
    let mut json = None;
    let mut telemetry = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--lanes" => {
                let spec = args.next().expect("--lanes needs a comma-separated list");
                lanes = spec
                    .split(',')
                    .map(|s| {
                        let n: usize = s.trim().parse().expect("lane counts must be integers");
                        assert!(n >= 1, "lane counts must be >= 1");
                        n
                    })
                    .collect();
                assert!(!lanes.is_empty(), "--lanes list is empty");
            }
            "--json" => json = Some(args.next().expect("--json needs a path")),
            "--telemetry" => telemetry = Some(args.next().expect("--telemetry needs a path")),
            other => panic!(
                "unknown argument {other} (expected --lanes LIST, --json PATH or --telemetry PATH)"
            ),
        }
    }
    (lanes, json, telemetry)
}

fn main() {
    let (lane_counts, json_path, telemetry_path) = parse_args();
    let telemetry = Telemetry::new();
    // Accumulate into the shared registry only when it is exported.
    let sink = telemetry_path.is_some().then_some(&telemetry);
    let mut records = Vec::new();

    header("Lane scaling: parallel Shield datapath (modelled cycles, deterministic)");
    for w in workloads() {
        println!("{} [{}]", w.name, w.profile_name);
        let mut one_lane_cycles = None;
        for &lanes in &lane_counts {
            let report = overhead(&w.make, &w.profile, lanes, sink)
                .unwrap_or_else(|e| panic!("{} at {lanes} lanes failed: {e}", w.name));
            assert!(
                report.baseline_verified && report.shielded_verified,
                "{} at {lanes} lanes produced wrong outputs",
                w.name
            );
            let shield = report.shielded_cycles.0;
            if lanes == 1 {
                one_lane_cycles = Some(shield);
            }
            let speedup = one_lane_cycles.map(|c| c as f64 / shield as f64);
            println!(
                "    lanes={lanes:<2}  shield={shield:>12} cyc  overhead={:>5.2}x  speedup={}",
                report.normalized,
                speedup.map_or("    n/a".into(), |s| format!("{s:>5.2}x")),
            );
            records.push(LaneRecord {
                workload: w.name.into(),
                profile: w.profile_name.into(),
                lanes,
                baseline_cycles: report.baseline_cycles.0,
                shield_cycles: shield,
            });
        }
        println!();
    }

    if let Some(path) = json_path {
        write_bench_json(&path, &records).expect("failed to write bench JSON");
        println!("wrote {} records to {path}", records.len());
    }
    if let Some(path) = telemetry_path {
        let report = telemetry.report();
        std::fs::write(&path, report.to_json()).expect("failed to write telemetry report");
        println!("{}", report.summary_table());
        println!("wrote telemetry report to {path}");
    }
}
