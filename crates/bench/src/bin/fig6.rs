//! Regenerates **Figure 6**: normalized execution time of the five
//! evaluation accelerators across Shield configurations
//! (AES-128/16x, AES-256/16x, AES-128/4x, AES-256/4x — plus the
//! AES-128/16x-PMAC variant for DNNWeaver).
//!
//! Paper ranges: Convolution 1.20–1.35×, Digit Recognition 1.85–3.15×,
//! Affine 1.41–2.22×, DNNWeaver 3.20–3.83× (2.31× with PMAC),
//! Bitcoin ≈ 1×.

use shef_accel::affine::AffineTransform;
use shef_accel::bitcoin::Bitcoin;
use shef_accel::conv::{ConvDims, Convolution};
use shef_accel::digitrec::DigitRecognition;
use shef_accel::dnnweaver::DnnWeaver;
use shef_accel::harness::overhead;
use shef_accel::{Accelerator, CryptoProfile};
use shef_bench::{header, overhead_row};

fn sweep(name: &str, make: &dyn Fn() -> Box<dyn Accelerator>, paper: [f64; 4]) {
    println!("--- {name} (STR/RA per paper) ---");
    for ((label, profile), paper_value) in CryptoProfile::fig6_profiles().into_iter().zip(paper) {
        let report = overhead(&make, &profile, 1, None).expect("run succeeds");
        assert!(
            report.shielded_verified && report.baseline_verified,
            "{name}/{label}: outputs failed verification"
        );
        overhead_row(label, report.normalized, Some(paper_value));
    }
    println!();
}

fn main() {
    header("Figure 6: execution time across Shield configurations");

    sweep(
        "Convolution (batched STR)",
        &|| Box::new(Convolution::new(ConvDims::paper(), 21)) as Box<dyn Accelerator>,
        [1.20, 1.22, 1.30, 1.35],
    );

    sweep(
        "Digit Recognition (STR)",
        &|| Box::new(DigitRecognition::new(8000, 250, 22)) as Box<dyn Accelerator>,
        [1.85, 2.00, 2.90, 3.15],
    );

    sweep(
        "Affine Transformation (RA)",
        &|| Box::new(AffineTransform::paper(23)) as Box<dyn Accelerator>,
        [1.41, 1.55, 2.00, 2.22],
    );

    sweep(
        "DNNWeaver (STR+RA)",
        &|| Box::new(DnnWeaver::new(4, 24)) as Box<dyn Accelerator>,
        [3.20, 3.35, 3.70, 3.83],
    );

    // The §6.2.4 PMAC optimization for DNNWeaver.
    let make_pmac = || Box::new(DnnWeaver::new(4, 24).with_pmac_weights()) as Box<dyn Accelerator>;
    let report =
        overhead(&make_pmac, &CryptoProfile::AES128_16X_PMAC, 1, None).expect("run succeeds");
    assert!(report.shielded_verified && report.baseline_verified);
    overhead_row("DNNWeaver AES-128/16x-PMAC", report.normalized, Some(2.31));
    println!();

    sweep(
        "Bitcoin (REG)",
        &|| Box::new(Bitcoin::new(16, 25)) as Box<dyn Accelerator>,
        [1.0, 1.0, 1.0, 1.0],
    );

    println!("(paper values from Fig. 6; every point verified end to end)");
}
