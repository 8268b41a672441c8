//! Tenant-scaling sweep of the multi-tenant `ShieldService`, and the
//! second data source for the CI bench gate.
//!
//! Runs a fixed set of workloads through [`run_service`] at
//! increasing tenant counts on a fixed shard geometry, reporting the
//! *makespan* — the slowest tenant's modelled cycles. Every request
//! crosses admission control and the deterministic min-clock shard
//! arbiter, so the numbers measure the service's scheduling overhead,
//! not wall-clock noise: the baseline for each row is the same
//! workload's single-tenant makespan, and the `overhead` column is the
//! multi-tenant slowdown CI gates on.
//!
//! ```text
//! cargo run --release -p shef-bench --bin tenant_scaling -- \
//!     --tenants 1,2,4 --json BENCH_service.json --telemetry svc.tele.json
//! ```

use shef_accel::dnnweaver::DnnWeaver;
use shef_accel::harness::run_service;
use shef_accel::matmul::MatMul;
use shef_accel::vecadd::VectorAdd;
use shef_accel::{Accelerator, CryptoProfile};
use shef_bench::{header, write_bench_json, LaneRecord};
use shef_core::shield::ServiceConfig;
use shef_telemetry::Telemetry;

/// All sweeps replay the same seed so the report is byte-stable.
const SEED: u64 = 42;
/// Fixed shard geometry: two shards of two lanes. Tenants round-robin
/// across shards, so 1 tenant occupies one shard, 4 tenants two each.
const SHARDS: usize = 2;
const LANES_PER_SHARD: usize = 2;

struct Workload {
    name: &'static str,
    profile_name: &'static str,
    profile: CryptoProfile,
    make: Box<dyn Fn() -> Box<dyn Accelerator>>,
}

/// The sweep's workload set: the same crypto-bound mix as the
/// lane-scaling gate, sized down so the full tenant sweep stays fast.
fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "svc_vecadd_64k",
            profile_name: "aes128_4x",
            profile: CryptoProfile::AES128_4X,
            make: Box::new(|| Box::new(VectorAdd::new(64 * 1024, 1))),
        },
        Workload {
            name: "svc_matmul_32",
            profile_name: "aes128_4x",
            profile: CryptoProfile::AES128_4X,
            make: Box::new(|| Box::new(MatMul::new(32, 3))),
        },
        Workload {
            name: "svc_dnnweaver_b1",
            profile_name: "aes256_4x",
            profile: CryptoProfile::AES256_4X,
            make: Box::new(|| Box::new(DnnWeaver::new(1, 5))),
        },
    ]
}

fn parse_args() -> (Vec<usize>, Option<String>, Option<String>) {
    let mut tenants = vec![1usize, 2, 4];
    let mut json = None;
    let mut telemetry = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tenants" => {
                let spec = args
                    .next()
                    .expect("--tenants needs a comma-separated list");
                tenants = spec
                    .split(',')
                    .map(|s| {
                        let n: usize = s.trim().parse().expect("tenant counts must be integers");
                        assert!(n >= 1, "tenant counts must be >= 1");
                        n
                    })
                    .collect();
                assert!(!tenants.is_empty(), "--tenants list is empty");
            }
            "--json" => json = Some(args.next().expect("--json needs a path")),
            "--telemetry" => telemetry = Some(args.next().expect("--telemetry needs a path")),
            other => panic!(
                "unknown argument {other} (expected --tenants LIST, --json PATH or --telemetry PATH)"
            ),
        }
    }
    (tenants, json, telemetry)
}

fn main() {
    let (tenant_counts, json_path, telemetry_path) = parse_args();
    let telemetry = Telemetry::new();
    // Accumulate into the shared registry only when it is exported.
    let sink = telemetry_path.is_some().then_some(&telemetry);
    let config = ServiceConfig {
        shards: SHARDS,
        lanes_per_shard: LANES_PER_SHARD,
        queue_capacity: 64,
        tenant_quota: 32,
    };
    let mut records = Vec::new();

    header("Tenant scaling: multi-tenant Shield service (modelled makespan, deterministic)");
    println!(
        "geometry: {SHARDS} shards x {LANES_PER_SHARD} lanes, seed {SEED}; \
         overhead = makespan vs the same workload single-tenant"
    );
    println!();
    for w in workloads() {
        println!("{} [{}]", w.name, w.profile_name);
        let mut solo_makespan = None;
        for &tenants in &tenant_counts {
            let report = run_service(&w.make, &w.profile, SEED, tenants, &config, sink)
                .unwrap_or_else(|e| panic!("{} at {tenants} tenants failed: {e}", w.name));
            assert!(
                report.all_verified(),
                "{} at {tenants} tenants produced wrong outputs",
                w.name
            );
            assert_eq!(
                report.admitted, report.completed,
                "{} at {tenants} tenants lost an admitted request",
                w.name
            );
            let makespan = report.makespan().0;
            let solo = *solo_makespan.get_or_insert_with(|| {
                if tenants == 1 {
                    makespan
                } else {
                    // The sweep didn't start at 1 tenant; measure the
                    // solo baseline separately so overhead stays
                    // comparable across --tenants lists.
                    run_service(&w.make, &w.profile, SEED, 1, &config, None)
                        .unwrap_or_else(|e| panic!("{} solo baseline failed: {e}", w.name))
                        .makespan()
                        .0
                }
            });
            println!(
                "    tenants={tenants:<2}  makespan={makespan:>12} cyc  slowdown={:>5.2}x",
                makespan as f64 / solo.max(1) as f64,
            );
            records.push(LaneRecord {
                workload: format!("{}_t{tenants}", w.name),
                profile: w.profile_name.into(),
                lanes: LANES_PER_SHARD,
                baseline_cycles: solo,
                shield_cycles: makespan,
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
