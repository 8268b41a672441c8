//! Regenerates the **§6.2.2 matrix-multiply microbenchmark** result:
//! "which yielded similar, but less pronounced, insights (maximum
//! overhead of 1.26x for AES/4x) as matrix multiplication involves more
//! computation per data accessed."

use shef_accel::harness::overhead;
use shef_accel::matmul::MatMul;
use shef_accel::{Accelerator, CryptoProfile};
use shef_bench::{header, overhead_row};

fn main() {
    header("§6.2.2: matrix-multiply microbenchmark");
    let mut max_4x: f64 = 0.0;
    for n in [128usize, 256, 512] {
        let make = move || Box::new(MatMul::new(n, 31)) as Box<dyn Accelerator>;
        let r4 = overhead(&make, &CryptoProfile::AES128_4X, 1).expect("run succeeds");
        let r16 = overhead(&make, &CryptoProfile::AES128_16X, 1).expect("run succeeds");
        assert!(r4.shielded_verified && r16.shielded_verified);
        max_4x = max_4x.max(r4.normalized);
        overhead_row(&format!("{n}x{n} AES-128/4x"), r4.normalized, None);
        overhead_row(&format!("{n}x{n} AES-128/16x"), r16.normalized, None);
    }
    println!();
    overhead_row("maximum AES-128/4x overhead", max_4x, Some(1.26));
    println!("(the paper reports only the maximum; larger matrices hide crypto");
    println!(" behind O(n^3) compute, exactly the paper's arithmetic-intensity point)");
}
