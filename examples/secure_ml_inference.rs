//! Secure ML inference: DNNWeaver running LeNet behind the Shield —
//! the paper's flagship mixed-pattern workload (§6.2.4).
//!
//! Shows the two-engine-set bespoke configuration (4 KB streaming
//! weights vs 64 B read-modify-write feature maps with freshness
//! counters), and the §6.2.4 optimization of swapping the weight set's
//! HMAC for four PMAC engines.
//!
//! Run with: `cargo run --release --example secure_ml_inference`

use shef::accel::dnnweaver::DnnWeaver;
use shef::accel::harness::{run_baseline, run_shielded_parallel};
use shef::accel::{Accelerator, CryptoProfile};
use shef::core::shield::area::shield_area;
use shef::core::shield::WorkerPool;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pool = WorkerPool::new(1);
    let batch = 4;

    let mut accel = DnnWeaver::new(batch, 99);
    let cfg = accel.shield_config(&CryptoProfile::AES128_16X);
    println!("bespoke Shield for DNNWeaver/LeNet:");
    for region in &cfg.regions {
        println!(
            "  {:<8} {:>8} B  {}",
            region.name,
            region.range.len,
            region.engine_set.describe()
        );
    }
    let area = shield_area(&cfg);
    println!(
        "  area: {:.1}% LUT, {:.1}% REG, {:.1}% BRAM of the F1 device",
        area.lut_pct(),
        area.reg_pct(),
        area.bram_pct()
    );
    println!();

    let baseline = run_baseline(&mut accel)?;
    assert!(baseline.outputs_verified);
    println!("baseline (no shield):        {:>8.0} µs", baseline.micros);

    let mut accel = DnnWeaver::new(batch, 99);
    let hmac = run_shielded_parallel(&mut accel, &CryptoProfile::AES128_16X, 3, &pool)?;
    assert!(hmac.outputs_verified);
    println!(
        "shielded, HMAC weights:      {:>8.0} µs  ({:.2}x)  [paper: 3.20x]",
        hmac.micros,
        hmac.micros / baseline.micros
    );

    let mut accel = DnnWeaver::new(batch, 99).with_pmac_weights();
    let pmac = run_shielded_parallel(&mut accel, &CryptoProfile::AES128_16X_PMAC, 3, &pool)?;
    assert!(pmac.outputs_verified);
    println!(
        "shielded, PMAC x4 weights:   {:>8.0} µs  ({:.2}x)  [paper: 2.31x]",
        pmac.micros,
        pmac.micros / baseline.micros
    );

    println!();
    println!("the 10 class scores of every inference were produced inside the TEE and");
    println!("verified against the Data Owner's golden model after authenticated readback.");
    Ok(())
}
