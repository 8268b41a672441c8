//! Regenerates the **Appendix A.6** artifact check: "we observe a
//! latency of 5073 µs for dnnweaver_shield compared to 3054 µs with
//! dnnweaver" — a 1.66× end-to-end inference latency ratio, measured
//! with the full DMA + launch overhead included (unlike Fig. 6's
//! steady-state view).

use shef_accel::dnnweaver::DnnWeaver;
use shef_accel::harness::{run_baseline, run_shielded};
use shef_accel::CryptoProfile;
use shef_bench::{header, kv_row};
use shef_core::shield::WorkerPool;

fn main() {
    header("Appendix A.6: DNNWeaver LeNet end-to-end latency");
    let mut base = DnnWeaver::new(1, 42);
    let baseline = run_baseline(&mut base).expect("baseline runs");
    let mut shielded_accel = DnnWeaver::new(1, 42);
    let pool = WorkerPool::new(1);
    let shielded = run_shielded(
        &mut shielded_accel,
        &CryptoProfile::AES128_16X,
        9,
        &pool,
        None,
    )
    .expect("shielded runs");
    assert!(baseline.outputs_verified && shielded.outputs_verified);

    kv_row(
        "dnnweaver (baseline)",
        &format!("{:>8.0} µs   paper: 3054 µs", baseline.micros),
    );
    kv_row(
        "dnnweaver_shield",
        &format!("{:>8.0} µs   paper: 5073 µs", shielded.micros),
    );
    kv_row(
        "ratio",
        &format!(
            "{:>8.2}x   paper: {:.2}x",
            shielded.micros / baseline.micros,
            5073.0 / 3054.0
        ),
    );
    println!();
    println!("(absolute µs are simulator-clock values; the paper's are wall-clock on F1 —");
    println!(" the comparable quantity is the ratio)");
}
