//! Regenerates **Table 2**: SDP throughput overhead across Shield
//! designs (1 MB file accesses, 4 KB authentication blocks, two engine
//! sets with 16 KB buffers).
//!
//! Paper row: 298 %, 297 %, 59 %, 20 %, 20 % — the HMAC→PMAC swap and
//! engine scaling are the story; the saturation point at 8×/16× engines
//! marks where crypto stops being the bottleneck.

use shef_accel::harness::overhead;
use shef_accel::sdp::{SdpEngineConfig, SdpStore};
use shef_accel::{Accelerator, CryptoProfile};
use shef_bench::{header, kv_row};

fn main() {
    header("Table 2: SDP performance overhead across Shield designs");
    let paper = [298.0, 297.0, 59.0, 20.0, 20.0];
    for ((label, engines), paper_pct) in SdpEngineConfig::table2_columns().into_iter().zip(paper) {
        let make = move || Box::new(SdpStore::table2_workload(engines, 77)) as Box<dyn Accelerator>;
        let report = overhead(&make, &CryptoProfile::AES128_16X, 1).expect("run succeeds");
        assert!(report.shielded_verified && report.baseline_verified);
        let pct = (report.normalized - 1.0) * 100.0;
        kv_row(
            label,
            &format!("measured={pct:>6.0}%   paper={paper_pct:>4.0}%"),
        );
    }
    println!();
    println!("(overhead = normalized slowdown - 1, as in the paper's Table 2)");

    // Extension beyond the paper: the same workload with this repo's
    // third MAC engine. One GHASH engine sustains what took 4 PMAC
    // engines — the §5.2.2 engine-swap story taken one step further.
    println!();
    header("Extension (not in paper): GHASH/GCM engine on the Table 2 workload");
    for (label, engines) in [
        (
            "4xEng/16x/GCM (1 MAC engine)",
            SdpEngineConfig {
                aes_engines: 4,
                sbox: shef_crypto::aes::SBoxParallelism::X16,
                mac: shef_crypto::authenc::MacAlgorithm::AesGcm,
                mac_engines: 1,
            },
        ),
        (
            "8xEng/16x/GCM (2 MAC engines)",
            SdpEngineConfig {
                aes_engines: 8,
                sbox: shef_crypto::aes::SBoxParallelism::X16,
                mac: shef_crypto::authenc::MacAlgorithm::AesGcm,
                mac_engines: 2,
            },
        ),
    ] {
        let make = move || Box::new(SdpStore::table2_workload(engines, 77)) as Box<dyn Accelerator>;
        let report = overhead(&make, &CryptoProfile::AES128_16X, 1).expect("run succeeds");
        assert!(report.shielded_verified && report.baseline_verified);
        let pct = (report.normalized - 1.0) * 100.0;
        kv_row(label, &format!("measured={pct:>6.0}%   paper=  n/a"));
    }
}
