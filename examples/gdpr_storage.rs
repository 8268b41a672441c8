//! GDPR-compliant storage (SDP, §6.2.3): a Storage Node whose FPGA TEE
//! keeps user files encrypted at rest *and* in flight, with per-region
//! keys standing in for the paper's "user key" (storage side) and
//! "TLS key" (application side).
//!
//! The example deploys the SDP accelerator through the full ShEF
//! workflow, serves a `get`, and shows the Table 2 effect of swapping
//! the authentication engine from HMAC to PMAC.
//!
//! Run with: `cargo run --release --example gdpr_storage`

use shef::accel::harness::{run_baseline, run_shielded_parallel};
use shef::accel::sdp::{SdpEngineConfig, SdpOp, SdpStore};
use shef::accel::CryptoProfile;
use shef::core::shield::WorkerPool;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pool = WorkerPool::new(1);
    println!("SDP storage node: 1 MB files, 4 KB authentication blocks");
    println!();

    let columns = SdpEngineConfig::table2_columns();
    // One HMAC configuration and one PMAC configuration, as §6.2.3
    // tunes them.
    for (label, engines) in [columns[1], columns[3]] {
        let ops = vec![SdpOp::Get(0), SdpOp::Get(1), SdpOp::Put(2), SdpOp::Get(3)];
        let mut store = SdpStore::new(1 << 20, 4, ops.clone(), engines, 2026);
        let baseline = run_baseline(&mut store)?;
        assert!(baseline.outputs_verified, "baseline gets/puts must verify");

        let mut store = SdpStore::new(1 << 20, 4, ops, engines, 2026);
        let shielded = run_shielded_parallel(&mut store, &CryptoProfile::AES128_16X, 7, &pool)?;
        assert!(shielded.outputs_verified, "shielded gets/puts must verify");

        println!(
            "{label:<18} baseline {:>8.0} µs   shielded {:>8.0} µs   overhead {:>5.1} %",
            baseline.micros,
            shielded.micros,
            (shielded.micros / baseline.micros - 1.0) * 100.0
        );
        for (region, stats) in &shielded.engine_stats {
            println!(
                "    {region:<10} {:>5} fills, {:>5} writebacks, {:>3} integrity failures",
                stats.misses, stats.writebacks, stats.integrity_failures
            );
        }
    }

    println!();
    println!("every file delivered to the application was decrypted + verified by the");
    println!("client against the Shield's tags: spoofed or replayed storage would fail.");
    Ok(())
}
