//! Regenerates **Figure 5**: vector-add throughput overhead vs input
//! vector size for two Shield configurations (AES/4x and AES/16x).
//!
//! Paper shape: near 1× for small vectors (initialization-dominated),
//! rising with size; AES/16x stays below ~1.5×, AES/4x climbs toward
//! ~3.5× once the engines bound throughput.
//!
//! The paper sweeps 8 KB – 80 MB; we sweep 8 KB – 8 MB (the curve has
//! plateaued by 8 MB; larger points only add simulation time — the
//! functional simulator really encrypts every byte).

use shef_accel::harness::overhead;
use shef_accel::vecadd::VectorAdd;
use shef_accel::{Accelerator, CryptoProfile};
use shef_bench::{header, overhead_row};

fn main() {
    header("Figure 5: vector add normalized execution time vs vector size");
    let sizes_kb = [8usize, 80, 800, 8000];
    // Paper curve references (approximate, read off Fig. 5).
    let paper_4x = [1.1, 1.6, 3.0, 3.5];
    let paper_16x = [1.0, 1.1, 1.3, 1.4];

    println!("--- AES-128/4x ---");
    for (i, kb) in sizes_kb.iter().enumerate() {
        let bytes = kb * 1024;
        let make = move || Box::new(VectorAdd::new(bytes, 11)) as Box<dyn Accelerator>;
        let report = overhead(&make, &CryptoProfile::AES128_4X, 1).expect("run succeeds");
        assert!(report.shielded_verified && report.baseline_verified);
        overhead_row(&format!("{kb} KB"), report.normalized, Some(paper_4x[i]));
    }
    println!();
    println!("--- AES-128/16x ---");
    for (i, kb) in sizes_kb.iter().enumerate() {
        let bytes = kb * 1024;
        let make = move || Box::new(VectorAdd::new(bytes, 11)) as Box<dyn Accelerator>;
        let report = overhead(&make, &CryptoProfile::AES128_16X, 1).expect("run succeeds");
        assert!(report.shielded_verified && report.baseline_verified);
        overhead_row(&format!("{kb} KB"), report.normalized, Some(paper_16x[i]));
    }
    println!();
    println!("(paper values read off Fig. 5; workload verified end to end each point)");
}
